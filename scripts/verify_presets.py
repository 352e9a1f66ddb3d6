#!/usr/bin/env python3
"""Run the kernel/weight condition checks over every built-in preset pair
and print a one-line verdict per combination."""

import argparse
import sys

from wsonine.kernels import (KERNEL_PRESETS, WEIGHT_PRESETS, kernel_preset,
                             licm_check, weight_preset)
from wsonine.sonine import SonineData, csc_residual, wsc1_report, wsc2_report


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--tol", type=float, default=1e-8,
                   help="identity tolerance (default 1e-8)")
    args = p.parse_args(argv)

    failures = 0
    for kname in sorted(KERNEL_PRESETS):
        pair = kernel_preset(kname)
        lic = licm_check(pair.k, b=pair.b)
        print(f"{kname}: LICM {'pass' if lic.passed else 'FAIL'}")
        failures += not lic.passed
        if pair.exponent.is_constant:
            # the classical identity does not involve the weight
            data = SonineData.make(pair, weight_preset("w-one"))
            r = max(csc_residual(data, [0.1 * i * pair.b for i in range(1, 11)]))
            ok = r <= args.tol
            print(f"{kname}: CSC residual {r:.3e} {'pass' if ok else 'FAIL'}")
            failures += not ok
        for wname in sorted(WEIGHT_PRESETS):
            data = SonineData.make(pair, weight_preset(wname))
            rep1 = wsc1_report(data, tolerance=args.tol)
            print(f"{kname} x {wname}: {rep1.summary()}")
            failures += not rep1.passed
            if pair.exponent.is_constant:
                rep2 = wsc2_report(data, tolerance=args.tol)
                print(f"{kname} x {wname}: {rep2.summary()}")
                failures += not rep2.passed
    print(f"{failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
