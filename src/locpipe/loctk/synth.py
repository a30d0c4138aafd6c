"""Seeded synthetic RSSI dataset generator.

Samples are placed uniformly in a W x H meter area; anchors sit evenly
spaced on the area perimeter. Received signal strength follows the
log-distance path loss model

    rssi(d) = p0 - 10 * n * log10(max(d, d0) / d0) + sigma * z,   d0 = 1 m

with z a standard normal deviate (omitted entirely when sigma == 0). The
same seed always yields a byte-identical CSV, rendered by `tables.render_csv`.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

from ..errors import BuiltinError
from . import StageRequest, get, section
from .rng import Rng
from .tables import RSSI_PREFIX, render_csv

REFERENCE_DISTANCE_M = 1.0


@dataclass(frozen=True)
class SynthConfig:
    n: int
    anchors: int
    area_w: float
    area_h: float
    p0: float = -40.0
    path_loss_n: float = 2.2
    sigma: float = 2.0
    seed: int = 0

    def validate(self) -> None:
        if self.n < 1:
            raise BuiltinError(f"synth: n must be >= 1, got {self.n}")
        if self.anchors < 3:
            raise BuiltinError(f"synth: anchors must be >= 3, got {self.anchors}")
        if self.sigma < 0:
            raise BuiltinError(f"synth: sigma must be >= 0, got {self.sigma}")
        if self.area_w <= 0 or self.area_h <= 0:
            raise BuiltinError(f"synth: area must be positive, got {self.area_w}x{self.area_h}")
        if self.seed < 0:
            raise BuiltinError(f"synth: seed must be a non-negative integer, got {self.seed}")


def anchor_positions(count: int, width: float, height: float) -> list[tuple[float, float]]:
    """`count` points evenly spaced along the rectangle perimeter, walking
    (0,0) -> (W,0) -> (W,H) -> (0,H) -> (0,0)."""
    perimeter = 2.0 * (width + height)
    points = []
    for i in range(count):
        arc = perimeter * i / count
        if arc < width:
            points.append((arc, 0.0))
        elif arc < width + height:
            points.append((width, arc - width))
        elif arc < 2.0 * width + height:
            points.append((width - (arc - width - height), height))
        else:
            points.append((0.0, height - (arc - 2.0 * width - height)))
    return points


def rssi_at(distance: float, p0: float, path_loss_n: float, d0: float = REFERENCE_DISTANCE_M) -> float:
    return p0 - 10.0 * path_loss_n * math.log10(max(distance, d0) / d0)


def generate(cfg: SynthConfig) -> str:
    """Render the synthetic dataset as CSV text."""
    cfg.validate()
    rng = Rng(cfg.seed)
    anchors = anchor_positions(cfg.anchors, cfg.area_w, cfg.area_h)
    *rssi, xs, ys = columns = [array("d") for _ in range(cfg.anchors + 2)]
    for _ in range(cfg.n):
        x = rng.next_float() * cfg.area_w
        y = rng.next_float() * cfg.area_h
        for column, (ax, ay) in zip(rssi, anchors):
            value = rssi_at(math.hypot(x - ax, y - ay), cfg.p0, cfg.path_loss_n)
            if cfg.sigma > 0:
                value += cfg.sigma * rng.next_gauss()
            column.append(value)
        xs.append(x)
        ys.append(y)
    header = ["sample_id"] + [f"{RSSI_PREFIX}_{i + 1}" for i in range(cfg.anchors)] + ["x", "y"]
    ids = [f"s{i:06d}" for i in range(cfg.n)]
    return "".join(render_csv(header, ids, columns))


def config_from_params(params: dict, where: str = "synth") -> SynthConfig:
    area = get(params, "area", "mapping", where)
    return SynthConfig(
        n=get(params, "n", "int", where),
        anchors=get(params, "anchors", "int", where),
        area_w=float(get(area, "w", "number", f"{where}.area")),
        area_h=float(get(area, "h", "number", f"{where}.area")),
        p0=float(get(params, "p0", "number", where, default=-40.0)),
        path_loss_n=float(get(params, "path_loss_n", "number", where, default=2.2)),
        sigma=float(get(params, "sigma", "number", where, default=2.0)),
        seed=get(params, "seed", "int", where),
    )


def run(request: StageRequest) -> None:
    cfg = config_from_params(section(request, "synth"), where=f"stage '{request.stage}'")
    request.out(0, "raw dataset CSV").write_text(generate(cfg), encoding="utf-8")
