#!/usr/bin/env python3
"""Regenerate the desk-scale study tables and the symmetry figure.

Writes CSV tables and one SVG chart into an output directory (default
``./reports``).  Everything is seeded, so reruns produce identical files.
At the default scale (400 replications) the whole run takes well under a
minute; pass --reps to change the trade-off.
"""

import argparse
import csv
import pathlib
import sys

from copulachain.chain import ModelParams
from copulachain.mixing import phi_closed, psi_closed
from copulachain.montecarlo import symmetry_report, table_study
from copulachain.svgchart import emit_svg

P_VALUES = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    print(f"wrote {path}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="reports", help="output directory")
    ap.add_argument("--reps", type=int, default=400, help="replications per cell")
    ap.add_argument("--seed", type=int, default=20260814, help="master seed")
    args = ap.parse_args(argv)

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    # interval studies for the MLE on both branches, three sample sizes
    for which in ("mle-less", "mle-geq"):
        header, rows = table_study(which, [499, 999, 4999], reps=args.reps, master_seed=args.seed)
        write_csv(outdir / f"{which}.csv", header, rows)

    # estimator comparison at a smaller grid
    for which in ("compare-less", "compare-geq"):
        header, rows = table_study(which, [999, 9999], reps=args.reps, master_seed=args.seed)
        write_csv(outdir / f"{which}.csv", header, rows)

    # mean length of the MLE interval for p across p (mc_mle_study), against
    # the closed form, which is the same for the sample-mean interval; the
    # curve is symmetric about p = 1/2
    rows = symmetry_report(0.5, P_VALUES, 999, reps=args.reps, master_seed=args.seed)
    write_csv(
        outdir / "symmetry.csv",
        ["p", "mc_ciml", "closed_ciml"],
        [[r.p, r.mc_ciml, r.closed_ciml] for r in rows],
    )
    svg = emit_svg(
        [
            ("monte carlo", [(r.p, r.mc_ciml) for r in rows]),
            ("closed form", [(r.p, r.closed_ciml) for r in rows]),
        ],
        title="MLE interval length for p across p (a = 0.5, n = 999)",
        xlabel="p",
        ylabel="mean CI length",
    )
    (outdir / "symmetry.svg").write_text(svg)
    print(f"wrote {outdir / 'symmetry.svg'}")

    # dependence decay at a few parameter points, for reference
    decay_rows = []
    for a, p in ((0.2, 0.1), (0.5, 0.3), (0.9, 0.7)):
        params = ModelParams(a, p)
        for lag in range(1, 26):
            decay_rows.append([a, p, lag, psi_closed(params, lag), phi_closed(params, lag)])
    write_csv(outdir / "mixing_decay.csv", ["a", "p", "lag", "psi", "phi"], decay_rows)

    return 0


if __name__ == "__main__":
    sys.exit(main())
