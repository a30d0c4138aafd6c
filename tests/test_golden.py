"""Golden output digests of the `baseline`, `scaling`, `two-model` and
`change-cv` templates, the `scaling` one at `scale.factor` 2 and at 3.

Every builtin's identity is a digest of the builtin code, so any code edit
re-executes every builtin stage. These digests pin every committed out of
five full runs (ridge and kNN, k-fold and shuffle splits, two and three
copies of the scaled table), so a change meant
to keep output bytes (a speed-up, a refactor) shows here that it keeps them.
A change that is meant to move bytes updates these digests with it.
"""

from __future__ import annotations

import hashlib

import pytest

from locpipe.store import load_lock

from conftest import edit_params, run

GOLDEN = {
    "baseline": {
        "data/raw.csv": "2885c2b4e10f4c219f115310c1842e1da91aefa5e2edca113855d16772e399e6",
        "data/prepared.csv": "2885c2b4e10f4c219f115310c1842e1da91aefa5e2edca113855d16772e399e6",
        "data/prepare_summary.json": "e01881be14f114582d601fbf84bd38c1f9bc12f5eefb6d7e8709fa10e8ff0b83",
        "data/features.csv": "1ba1f261966456eef2832e832f2cec2651bebd4c89104cf8137a741390037e87",
        "data/folds.json": "4a9d9ff8ff560a28c90ac30aab4321a912539d5bf27f9a1faa9beb816fc378d0",
        "out/cv_results.json": "7e54f4cb9088c54aca32fee0d70c1226609882dbea359f15c9e569b13e1dd31d",
        "out/model.json": "dcafe0896cccf0886603ff988e09ee63b37436dae66a5120eba902b90a86e496",
        "out/predictions.csv": "5f1b35aafc484c43856b44fa17fb553b4eb898b48cd82c480d40bab405fcde95",
        "out/metrics.json": "a4f7651d8e1b1f6f0d1bd280b1ab91e3412899ab15e73b04fdaa65db7549e379",
        "report/report.md": "df303653a817898f404717b970a1d525e1a88c51c879efe51d34f0506ea416f5",
        "report/summary.csv": "f34cf450e446d2c39ee3a06f45417ecf5155bbfbda64eba4708ad3247c175983",
    },
    "scaling": {
        "data/raw.csv": "d6e1dc5169a15bd04fb0d6af72563e2a393969f537e0c55d9c05d64e804528c2",
        "data/prepared.csv": "d6e1dc5169a15bd04fb0d6af72563e2a393969f537e0c55d9c05d64e804528c2",
        "data/prepare_summary.json": "1c876e83596e31cd950213f668c0388effee5e34489810aade38a857b3b30a13",
        "data/scaled.csv": "3fe0b30c104fc95f5b7bed7d975bff053c44217e7cc79f880ac956c2f08ed51e",
        "data/features.csv": "7ded9aa6ef3bf54e2bb877e2f2b3aa8552d4bbc4df8e3ecd0994376880335f41",
        "data/folds.json": "baa86dabf93328ff813cabce2c61512e8dcc3d4f4ff0ce5fdec62e2d686d4fe1",
        "out/cv_results.json": "d2b87765fc488fb6bdbaf87b4f17ef3e008211a5246f7a5d16cc5aaa9fee3ac4",
        "out/model.json": "5f5a933a0b591b242621985aed2334f26086b9357d03d9f255362cfe41cb1222",
        "out/predictions.csv": "c3eeb4ba84db14d9b9c301d2433d2fdea3de7b705cf43ee76ddbc59ce5886a1f",
        "out/metrics.json": "ca3db68f5886e9909985c1e29199cfd5c2ce68b7523b257854f58c78ef03a30f",
        "report/report.md": "7277b392e4a8cf196da7fd762d4e194c1150b518ae3823299117cee32d1ac262",
        "report/summary.csv": "5f784ee7b4dacf4c3ef33d293cf795306bc639ce26c8b0cb7ffa3eb3adf426b1",
    },
    "two-model": {
        "data/raw.csv": "2885c2b4e10f4c219f115310c1842e1da91aefa5e2edca113855d16772e399e6",
        "data/prepared.csv": "2885c2b4e10f4c219f115310c1842e1da91aefa5e2edca113855d16772e399e6",
        "data/prepare_summary.json": "e01881be14f114582d601fbf84bd38c1f9bc12f5eefb6d7e8709fa10e8ff0b83",
        "data/features.csv": "1ba1f261966456eef2832e832f2cec2651bebd4c89104cf8137a741390037e87",
        "data/folds.json": "4a9d9ff8ff560a28c90ac30aab4321a912539d5bf27f9a1faa9beb816fc378d0",
        "out/cv_results.json": "8470c3e856de0f6d491002ff6c3ee9d93905a313298b20c4c50d3a5760c3f455",
        "out/model.json": "a1a2a140ad2272968834514707c885f2e64d352321100b0bb90da4e914765b92",
        "out/predictions.csv": "5f0fca9016781aaad7d2927524bde98605f6a6211c11575fa0e8af40537480c4",
        "out/metrics.json": "d39bfd186517295b20a7c2bcdc8e597d92bb75d2795457dc142c37e22ce854e3",
        "report/report.md": "ab3075727340910ca52d25b31f195cbd05300d81986f46aa68fbc47faf465c4d",
        "report/summary.csv": "975adf657534f61cf0e5dc6b4111a3fbfbd79c5b4cc83a2f9d5a656cc88a9e51",
    },
    "change-cv": {
        "data/raw.csv": "2885c2b4e10f4c219f115310c1842e1da91aefa5e2edca113855d16772e399e6",
        "data/prepared.csv": "2885c2b4e10f4c219f115310c1842e1da91aefa5e2edca113855d16772e399e6",
        "data/prepare_summary.json": "e01881be14f114582d601fbf84bd38c1f9bc12f5eefb6d7e8709fa10e8ff0b83",
        "data/features.csv": "1ba1f261966456eef2832e832f2cec2651bebd4c89104cf8137a741390037e87",
        "data/folds.json": "e7eb91c7a43f0df798ff6f8d56eed6aa77446e11cf3622407afd55287b903fd7",
        "out/cv_results.json": "d0209513a1b18f623c247c8c672fb30ad2c77b410689109484e823383ed7333b",
        "out/model.json": "d98548f839f65017e4ed7d770faa2b1cba55c41c3839cd01e59ed4a5025f1092",
        "out/predictions.csv": "40a8c23e3e2d9885c2aad3073a569ad4e8a5704c43cdb642ec00dfa26b4bbc36",
        "out/metrics.json": "d1f38b1d9e7a9414146d051b820ab36fae7145088273258d68f2a27f2776a566",
        "report/report.md": "fed1e665704efc0a15770490d4ac2e3ec4a31ea2cf0128ae42ddaf3952ca7916",
        "report/summary.csv": "4aa1116d1ca25433ec3d5bdd7ba913ef2028c257400b3342093d46697282de41",
    },
}


# The `scaling` template at `scale.factor: 3`, recorded before the scale,
# split and gridsearch builtins were made to stream their outputs.
GOLDEN_SCALING_FACTOR_3 = {
    "data/raw.csv": "d6e1dc5169a15bd04fb0d6af72563e2a393969f537e0c55d9c05d64e804528c2",
    "data/prepared.csv": "d6e1dc5169a15bd04fb0d6af72563e2a393969f537e0c55d9c05d64e804528c2",
    "data/prepare_summary.json": "1c876e83596e31cd950213f668c0388effee5e34489810aade38a857b3b30a13",
    "data/scaled.csv": "973fcab2da75c6d0121dee9c5e549fc83483559707feb8a0c685205a94a63f9a",
    "data/features.csv": "1f3e8de2ca5edef414c1e1cab0fd05d7c911bda71e82ff8722af37333b9f2a44",
    "data/folds.json": "917f4ea2ec330562bafe179ff8f7be6e0881ded8e48266ebd263816295f9081f",
    "out/cv_results.json": "74761005c196c28a103ef048fb0e45ccfa982c7b90cf23524cce4087af723aba",
    "out/model.json": "644d8e874aa8cd2e4f69ee2e0f36249140b7dc328f647a3384a3331627e1f0e3",
    "out/predictions.csv": "34d7651f513070586a3be7cd0d54490292efceca9edaf4312efd5b121be0ad4e",
    "out/metrics.json": "6d0317f163af2edcfd59731cf719a1ad56c3fbd1626c5206bf8cd0caf34db8bf",
    "report/report.md": "212e935e9144a0ee8f27beed0cb35b4c79af3c98563f93138220b054653277f7",
    "report/summary.csv": "5aa0aa61073819ec73d6ceb1d896f7bc5ae8fc31f3f42b6152dc67a99995c126",
}


def committed_digests(make_project, template: str, factor: int | None) -> dict[str, str]:
    """out path -> SHA-256 of every committed out of a full run of `template`."""
    project = make_project(template)
    if factor is not None:
        edit_params(project, "scale.factor", factor)
    report = run(project)
    assert report.failed == 0 and report.cached == 0
    outs = [out for entry in load_lock(project.lock_path).values() for out in entry.outs]
    return {out: hashlib.sha256((project.root / out).read_bytes()).hexdigest() for out in outs}


@pytest.mark.parametrize("template, factor", [
    ("baseline", None), ("scaling", 2), ("two-model", None), ("change-cv", None),
])
def test_committed_outs_match_golden_digests(make_project, template, factor):
    assert committed_digests(make_project, template, factor) == GOLDEN[template]


def test_three_copies_of_the_scaled_table_match_golden_digests(make_project):
    assert committed_digests(make_project, "scaling", 3) == GOLDEN_SCALING_FACTOR_3
