#!/usr/bin/env python3
"""Reproduce the headline numbers: exact minima, curve heights, and margins.

Prints, for each genus in the configured range, the two successive minima of
the height against the standard polarization, the self-height of the total
space, the signed margin by which the second successive-minima inequality
fails, and the first few members of the witness family that attains the
minimum at unbounded degree.
"""

import argparse

from curvejac.heights import height_point, standard_polarization
from curvejac.minima import cone_minimum, witness_sequence, zhang_audit


def parse_config() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--g-min", type=int, default=2)
    parser.add_argument("--g-max", type=int, default=12)
    parser.add_argument("--witnesses", type=int, default=3,
                        help="witness family members to print per genus")
    config = parser.parse_args()
    if config.g_min < 2:
        parser.error(f"--g-min must be at least 2, got {config.g_min}")
    if config.g_min > config.g_max:
        parser.error(f"empty genus range: --g-min {config.g_min} > --g-max {config.g_max}")
    if config.witnesses < 0:
        parser.error(f"--witnesses must be at least 0, got {config.witnesses}")
    return config


def main() -> None:
    config = parse_config()
    for g in range(config.g_min, config.g_max + 1):
        L = standard_polarization(g)
        audit = zhang_audit(L)
        report = cone_minimum(L)
        print(f"genus {g}: L = {L}")
        print(f"  e1 = e2 = {audit.e1}   curve height = {audit.h_curve}")
        print(f"  minimizer t* = {report.t_star}, s* = {report.s_star}")
        status = "holds" if audit.second_inequality_holds else "FAILS"
        print(f"  second inequality {status}, margin {audit.violation_margin}")
        for n in range(1, config.witnesses + 1):
            witness = witness_sequence(g, n)
            height = height_point(L, witness)
            print(f"  witness n={n}: {witness.cls}, degree {witness.degree}, "
                  f"height {height}")
        print()


if __name__ == "__main__":
    main()
