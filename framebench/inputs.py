"""Generate a workload's inputs from a seed with the program's synthetic module.

It runs as a process of its own so that generation time and memory stay out
of the figures of the measured program:

    python3 framebench/inputs.py --kind street --seed 3 --out DIR

street: STREET_SCENES 64x1024 frames, one from each of as many street scenes
(about 63k points each, 2% dropout, sensor 1.73 m above the road, ego-lane
traffic queue), as sequences 00, 01, ... in SemanticKITTI layout. One frame
per scene, because frames of one scene cost nearly the same to segment and a
run over a single scene would measure that scene rather than the program.
ssl: SSL_CAPTURES raw 126x625 captures (.sslraw, 3% dropout, sensor 1.0 m
above the floor).
"""

from __future__ import annotations

import argparse
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CACHE = ROOT / ".framebench_inputs"
STREET_SCENES = 12
SSL_CAPTURES = 8
VERSION = "v3"  # bump when the make-up of the inputs changes


def input_dir(kind: str, seed: int) -> Path:
    return CACHE / f"{kind}-seed{seed}-{VERSION}"


def generate(kind: str, seed: int, out: Path) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from groundslice import ssl_frame, synthetic

    tmp = out.with_name(out.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    if kind == "street":
        for i in range(STREET_SCENES):
            synthetic.write_sequence(tmp, f"{i:02d}", 1, seed=seed * STREET_SCENES + i)
    else:
        for i in range(SSL_CAPTURES):
            raw = synthetic.make_ssl_capture(seed * SSL_CAPTURES + i, dropout=0.03,
                                             sensor_height=1.0)
            ssl_frame.save_sslraw(raw, tmp / f"capture_{i:02d}.sslraw")
    tmp.rename(out)  # a complete directory appears at once


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kind", choices=("street", "ssl"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    generate(args.kind, args.seed, args.out)


if __name__ == "__main__":
    main()
