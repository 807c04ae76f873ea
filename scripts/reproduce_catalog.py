#!/usr/bin/env python3
"""Re-derive the whole generator catalog and print a verification table.

For every case this recomputes the invariant dimension series from the
character pipeline, compares with the stored closed forms, re-checks the
invariance of every generator, evaluates the stored relations, and runs the
span rank checks, all in exact arithmetic.  Each check is printed with the
seconds it took and its problem size, as `verify_catalog` reports them.
"""

import argparse
import sys

from metalie.invariants import load_catalog, verify_catalog


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--degree", type=int, default=12,
                        help="truncation for the series comparison (default 12)")
    parser.add_argument("--rank-degree", type=int, default=None,
                        help="bound for the span rank checks (default: --degree)")
    args = parser.parse_args()

    all_passed = True
    for case_id, case in load_catalog().items():
        report = verify_catalog(case, args.degree, args.rank_degree)
        all_passed &= report.passed
        status = "PASS" if report.passed else "FAIL"
        total = sum(check.elapsed for check in report.checks)
        print(f"case {case_id:>3}  blocks {str(case.spec):>6}  {status}  ({total:6.3f}s)")
        for check in report.checks:
            mark = "ok" if check.passed else "FAIL"
            detail = f"  {check.detail}" if check.detail else ""
            print(f"    [{mark:4}] {check.name:28} {check.elapsed:7.3f}s  "
                  f"size {check.size:5}{detail}")
    return 0 if all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
