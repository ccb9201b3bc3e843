"""Render every curated catalog diagram to files, one per entry.

Example:
    python scripts/render_catalog.py --format svg --out-dir figures/
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from vortexdiagrams.atlas import load_catalog  # noqa: E402
from vortexdiagrams.render import render  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--format", choices=("dot", "svg", "tikz"), default="svg")
    parser.add_argument("--out-dir", default="figures")
    parser.add_argument("--only", choices=("possible", "excluded", "all"), default="all")
    args = parser.parse_args()

    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = 0
    for entry in load_catalog():
        if args.only != "all" and entry.status != args.only:
            continue
        name = entry.figure_ref.replace(" ", "_").replace("#", "")
        path = out / f"{name}_{entry.status}.{args.format}"
        path.write_text(render(entry.diagram, args.format))
        written += 1
    print(f"wrote {written} files to {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
