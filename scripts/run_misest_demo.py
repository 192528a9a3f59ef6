"""Show how fairness constraints amplify utility misestimation.

A minority keeps its true utilities while the rest of the population is
averaged with the mirrored profile.  The demo prints the starvation
structure of the cold policy, then sweeps gamma and writes the price paid
by the misestimated group to CSV and a chart.

Usage:
    python3 scripts/run_misest_demo.py --out out/misest --beta 0.4
"""
import argparse
import os

import numpy as np

from fairrec.analytic import MisestSpec, misest_solution
from fairrec.io import provenance_lines, write_rows_csv
from fairrec.optimizer import Scope, TieBreak, price_of_misestimation
from fairrec.populations import gen_misestimation
from fairrec.svg import save_line_chart


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="out/misest", help="output directory")
    parser.add_argument("--beta", type=float, default=0.4, help="misestimated share")
    parser.add_argument("--users", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--grid", type=int, default=11, help="number of gamma points")
    args = parser.parse_args()

    v = np.array([3.0, 2.0, 1.0])
    spec = MisestSpec(v, args.beta)
    sol = misest_solution(spec)
    print(f"estimated-problem IF* = {sol.lam:.9f}")
    print("cold policy z =", np.array2string(sol.z, precision=6))
    if spec.starves_extremes:
        print("items 1 and", v.size, "are starved for the averaged users")

    data = gen_misestimation(v, args.beta, args.users, seed=args.seed)
    gammas = np.linspace(0.0, 1.0, args.grid)
    prices = price_of_misestimation(
        data.w, data.w_hat, gammas, Scope.MISESTIMATED_GROUP, tie_break=TieBreak.CANONICAL
    )
    rows = [[float(g), pom] for g, pom in zip(gammas, prices)]
    os.makedirs(args.out, exist_ok=True)
    config = {"beta": args.beta, "users": args.users, "seed": args.seed}
    write_rows_csv(
        os.path.join(args.out, "misest_price.csv"),
        ["gamma", "pom"],
        rows,
        provenance_lines("run_misest_demo", config, seed=args.seed),
    )
    save_line_chart(
        os.path.join(args.out, "misest_price.svg"),
        gammas,
        {"misestimated group": prices},
        title="price of misestimation vs constraint strength",
        x_label="gamma",
        y_label="relative welfare loss",
    )
    print(f"price at gamma = 0: {prices[0]:.6f}, at gamma = 1: {prices[-1]:.6f}")
    print(f"wrote misest_price.csv and misest_price.svg to {args.out}/")


if __name__ == "__main__":
    main()
