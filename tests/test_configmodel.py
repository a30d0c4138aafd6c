import copy
import random

import pytest

from locpipe.configmodel import (
    canonicalize,
    parse_params,
    parse_pipeline,
    select_params,
)
from locpipe.errors import ConfigError

FOUR_STAGE = """\
version: 1
stages:
  Prepare:
    cmd: ./prepare.sh
    deps: [raw.csv]
    outs: [prepared.csv]
  Featurize:
    cmd: ./featurize.sh
    deps: [prepared.csv]
    outs: [features.csv]
  Split:
    cmd: ./split.sh
    deps: [prepared.csv]
    outs: [folds.json]
  Grid-search:
    cmd: ./search.sh
    deps: [features.csv, folds.json]
    outs: [results.json]
"""


class TestParsePipeline:
    def test_four_stage_chain(self):
        spec = parse_pipeline(FOUR_STAGE)
        assert list(spec.stages) == ["Prepare", "Featurize", "Split", "Grid-search"]
        assert spec.stages["Grid-search"].deps == ("features.csv", "folds.json")

    def test_minimal_single_stage(self):
        spec = parse_pipeline("version: 1\nstages:\n  only:\n    cmd: 'true'\n")
        stage = spec.stages["only"]
        assert stage.deps == () and stage.outs == ()

    def test_duplicate_output_producer(self):
        text = """\
version: 1
stages:
  a:
    cmd: x
    outs: [out/data.csv]
  b:
    cmd: y
    outs: [out/data.csv]
"""
        with pytest.raises(ConfigError, match="out/data.csv"):
            parse_pipeline(text)

    def test_duplicate_stage_name(self):
        text = "version: 1\nstages:\n  a:\n    cmd: x\n  a:\n    cmd: y\n"
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_pipeline(text)

    def test_unknown_top_level_field(self):
        with pytest.raises(ConfigError, match="unknown field 'extra'"):
            parse_pipeline("version: 1\nextra: 1\nstages:\n  a:\n    cmd: x\n")

    def test_unknown_stage_field(self):
        with pytest.raises(ConfigError, match="unknown field 'wdir'"):
            parse_pipeline("version: 1\nstages:\n  a:\n    cmd: x\n    wdir: sub\n")

    def test_invalid_stage_name(self):
        with pytest.raises(ConfigError, match="invalid stage name"):
            parse_pipeline("version: 1\nstages:\n  'bad name':\n    cmd: x\n")

    def test_missing_version(self):
        with pytest.raises(ConfigError, match="version"):
            parse_pipeline("stages:\n  a:\n    cmd: x\n")

    def test_cmd_and_builtin_mutually_exclusive(self):
        with pytest.raises(ConfigError, match="exactly one"):
            parse_pipeline("version: 1\nstages:\n  a:\n    cmd: x\n    builtin: loc.synth\n")
        with pytest.raises(ConfigError, match="exactly one"):
            parse_pipeline("version: 1\nstages:\n  a:\n    deps: [f]\n")

    def test_metrics_must_be_outs(self):
        text = "version: 1\nstages:\n  a:\n    cmd: x\n    outs: [m.json]\n    metrics: [other.json]\n"
        with pytest.raises(ConfigError, match="metric"):
            parse_pipeline(text)

    def test_dep_out_overlap_within_stage(self):
        text = "version: 1\nstages:\n  a:\n    cmd: x\n    deps: [d/x.csv]\n    outs: [d]\n"
        with pytest.raises(ConfigError, match="overlaps"):
            parse_pipeline(text)

    def test_absolute_and_escaping_paths_rejected(self):
        with pytest.raises(ConfigError, match="repo-relative"):
            parse_pipeline("version: 1\nstages:\n  a:\n    cmd: x\n    outs: [/etc/out]\n")
        with pytest.raises(ConfigError, match="escapes"):
            parse_pipeline("version: 1\nstages:\n  a:\n    cmd: x\n    deps: ['../up.csv']\n")

    def test_syntax_error_reports_location(self):
        with pytest.raises(ConfigError, match=r"pipeline\.yaml:\d+"):
            parse_pipeline("version: 1\nstages:\n  a: [unclosed\n")


class TestParseParams:
    def test_bool_grid_values(self):
        tree = parse_params("model:\n  grid:\n    fit_intercept: [true, false]\n")
        assert tree["model"]["grid"]["fit_intercept"] == [True, False]

    def test_empty_document(self):
        assert parse_params("") == {}
        assert parse_params("\n# only a comment\n") == {}

    def test_non_finite_rejected(self):
        with pytest.raises(ConfigError, match="non-finite"):
            parse_params("x: .inf")
        with pytest.raises(ConfigError, match="non-finite"):
            parse_params("x: .nan")

    def test_non_string_key_rejected(self):
        with pytest.raises(ConfigError, match="non-string key"):
            parse_params("5: value")

    def test_unsupported_value_rejected(self):
        with pytest.raises(ConfigError, match="unsupported value"):
            parse_params("when: 2021-01-01")

    def test_depth_limit(self):
        deep = "a:" + "".join(f"\n{'  ' * (i + 1)}a:" for i in range(33)) + " 1"
        with pytest.raises(ConfigError, match="deeper"):
            parse_params(deep)

    def test_scalars_typed(self):
        tree = parse_params("a: 1\nb: 1.5\nc: text\nd: false\n")
        assert tree == {"a": 1, "b": 1.5, "c": "text", "d": False}


class TestSelectParams:
    TREE = {"split": {"k": 5, "seed": 7}, "model": {"grid": {"alpha": [0.0, 1.0]}}}

    def test_single_leaf(self):
        assert select_params(self.TREE, ["split.k"]) == {"split.k": 5}

    def test_empty_keys(self):
        assert select_params(self.TREE, []) == {}

    def test_whole_subtree_capture(self):
        subset = select_params(self.TREE, ["model"])
        assert subset["model"] == copy.deepcopy(self.TREE["model"])
        # any nested change must alter the canonical subset
        other = copy.deepcopy(self.TREE)
        other["model"]["grid"]["alpha"][1] = 2.0
        assert canonicalize(select_params(other, ["model"])) != canonicalize(subset)

    def test_missing_key_names_key_and_stage(self):
        with pytest.raises(ConfigError, match=r"stage 'split'.*'split\.q'"):
            select_params(self.TREE, ["split.q"], stage="split")

    def test_subset_is_a_copy(self):
        subset = select_params(self.TREE, ["model"])
        subset["model"]["grid"]["alpha"].append(9.0)
        assert self.TREE["model"]["grid"]["alpha"] == [0.0, 1.0]

    def test_containment_rule(self):
        # a key is present iff it or an ancestor was requested
        rng = random.Random(7)
        tree = {"a": {"b": {"c": 1, "d": 2}, "e": 3}, "f": 4}
        all_keys = ["a", "a.b", "a.b.c", "a.b.d", "a.e", "f"]
        for _ in range(50):
            keys = rng.sample(all_keys, rng.randint(0, len(all_keys)))
            # drop redundant child keys whose ancestor is also requested
            keys = [
                k for k in keys
                if not any(other != k and k.startswith(other + ".") for other in keys)
            ]
            subset = select_params(tree, keys)
            assert set(subset) == set(keys)


class TestCanonicalize:
    def test_sorting(self):
        assert canonicalize({"b": 1, "a": 2}) == b'{"a":2,"b":1}'

    def test_order_of_source_irrelevant(self):
        one = parse_params("split:\n  k: 5\n  seed: 7\n")
        two = parse_params("split:\n  seed: 7\n  k: 5\n")
        assert canonicalize(select_params(one, ["split"])) == canonicalize(select_params(two, ["split"]))

    def test_reformatted_decimal(self):
        one = parse_params("alpha: 2.50")
        two = parse_params("alpha: 2.5")
        assert canonicalize(one) == canonicalize(two) == b'{"alpha":2.5}'


# ---------------------------------------------------------------------------
# The parsers on a PyYAML built without libyaml


@pytest.fixture
def pyyaml_without_libyaml(monkeypatch):
    """Parse with a PyYAML that has no libyaml bindings, and check that the
    strict loader never needed them."""
    import yaml

    from locpipe import configmodel

    for name in ("CSafeLoader", "CLoader", "CBaseLoader", "CFullLoader", "CUnsafeLoader"):
        monkeypatch.delattr(yaml, name, raising=False)
    monkeypatch.setattr(yaml, "__with_libyaml__", False)
    configmodel._strict_loader.cache_clear()
    yield
    loader = configmodel._strict_loader()
    configmodel._strict_loader.cache_clear()
    assert issubclass(loader, yaml.SafeLoader)
    assert not any(base.__module__ == "yaml.cyaml" for base in loader.__mro__)


@pytest.mark.usefixtures("pyyaml_without_libyaml")
class TestParsePipelinePurePython(TestParsePipeline):
    pass


@pytest.mark.usefixtures("pyyaml_without_libyaml")
class TestParseParamsPurePython(TestParseParams):
    pass
