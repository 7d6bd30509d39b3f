#!/usr/bin/env python
"""Print one of the paper's evaluation tables (§5), reproduced at reduced
scale by ``repro.experiments``:

    python jobs/tables.py 3   # compilation overhead (Gen, Mnist60k-lite)
    python jobs/tables.py 4   # data-intensive algorithms, single node
    python jobs/tables.py 5   # compute-intensive algorithms
    python jobs/tables.py 6   # distributed algorithms, on a local[*] SparkSession

spark-submit runs it as well. Table 6's driver memory is
``SPARK_DRIVER_MEM`` (default 24g).
"""
import argparse
import os
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
TITLES = {
    3: "Table 3: End-to-End Compilation Overhead (Gen, Mnist60k-lite)",
    4: "Table 4: Runtime of Data-Intensive Algorithms [s] (single node)",
    5: "Table 5: Runtime of Compute-Intensive Algorithms [s]",
    6: "Table 6: Runtime of Distributed Algorithms [s]",
}


def spark_session():
    # the Spark workers import repro too
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master local[*] --driver-memory {os.environ.get('SPARK_DRIVER_MEM', '24g')} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false pyspark-shell",
    )
    from pyspark.sql import SparkSession

    return (SparkSession.builder.appName("repro-table6")
            .config("spark.sql.shuffle.partitions", "32")
            .config("spark.sql.execution.arrow.pyspark.enabled", "true").getOrCreate())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Print one of the paper's Tables 3-6.")
    ap.add_argument("table", type=int, choices=sorted(TITLES))
    n = ap.parse_args(argv).table
    sys.path.insert(0, SRC)
    from repro import experiments as ex

    if n == 6:
        spark = spark_session()
        try:
            rows = ex.table6_rows(spark)
        finally:
            spark.stop()
    else:
        rows = {3: ex.table3_rows, 4: ex.table4_rows, 5: ex.table5_rows}[n]()
    # Table 3's columns are its rows' fields; the others', a mode each
    cols = list(rows[0]) if n == 3 else ["algorithm", "data", *ex.MODE_LABEL.values()]
    print(TITLES[n])
    print(ex.format_rows(rows, cols))
    return 0


if __name__ == "__main__":
    sys.exit(main())
