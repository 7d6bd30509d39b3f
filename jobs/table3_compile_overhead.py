#!/usr/bin/env python
"""Reproduce paper Table 3: end-to-end compilation overhead per algorithm
(Gen defaults, Mnist60k-like input). Pure driver-side workload — no
SparkSession needed; runnable via spark-submit or plain python."""
import sys

from repro.experiments import format_rows, table3_rows


def main() -> int:
    rows = table3_rows()
    print("Table 3: End-to-End Compilation Overhead (Gen, Mnist60k-lite)")
    print(
        format_rows(
            rows,
            [
                "algorithm", "total_s", "compile(dags/cplans/classes)",
                "codegen_ms", "class_compile_ms", "cache_hits",
                "plans_evaluated",
            ],
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
