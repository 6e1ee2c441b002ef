"""Write the gallery tensors (and the triples of one of them) as JSON files.

Usage: python scripts/make_tensors.py [OUTDIR]

Produces the inputs the CLI examples in the README operate on, with the
benchmark's own writer, bench/workloads.write_cli_inputs (only read):
diagonal_pair.json, overlapping_slices.json, orthonormal_triad.json,
signed_diagonal.json, and diagonal_pair_triples.json (the six known
triples of the diagonal-pair operator, for `bilop verify`).
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402


def main() -> int:
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("tensors")
    workloads.write_cli_inputs(outdir)
    for stem in (*workloads.GALLERY, "diagonal_pair_triples"):
        print(f"wrote {outdir / stem}.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
