"""Check that two runs of the atmtomo command wrote the same records and fields.

    python3 .github/same_outputs.py SWEEP_A SWEEP_B BENCHMARK_A BENCHMARK_B [FIELD ...]

SWEEP_A and SWEEP_B are the output directories of two `atmtomo --mode sweep`
runs: both must hold the same 6 field files, each the same bytes, and each
field's CSV must hold the same records outside the seconds column.
BENCHMARK_A and BENCHMARK_B are those of two `--mode benchmark` runs:
benchmark_lbfgs.csv and benchmark_ldfp.csv must hold the same records outside
seconds, and each FIELD named must be the same bytes in both.
"""

import csv
import pathlib
import sys


def records(path):
    rows = list(csv.reader(path.open()))
    column = rows[0].index("seconds")
    return [row[:column] + row[column + 1 :] for row in rows]


def check(same: bool, what) -> None:
    if not same:
        sys.exit(f"the two runs differ: {what}")


def main(sweep_a, sweep_b, benchmark_a, benchmark_b, *fields):
    a, b = pathlib.Path(sweep_a), pathlib.Path(sweep_b)
    names = sorted(path.name for path in a.glob("*.fld"))
    check(len(names) == 6 and names == sorted(path.name for path in b.glob("*.fld")), names)
    for name in names:
        check((a / name).read_bytes() == (b / name).read_bytes(), name)
        csv_name = name.replace(".fld", ".csv")
        check(records(a / csv_name) == records(b / csv_name), csv_name)
    print("identical: the sweep's", len(names), "fields, and its CSVs outside seconds")
    a, b = pathlib.Path(benchmark_a), pathlib.Path(benchmark_b)
    for name in ("benchmark_lbfgs.csv", "benchmark_ldfp.csv"):
        check(records(a / name) == records(b / name), name)
    for name in fields:
        check((a / name).read_bytes() == (b / name).read_bytes(), name)
    print("identical: benchmark_lbfgs.csv and benchmark_ldfp.csv outside seconds", *fields, sep=", ")


if __name__ == "__main__":
    main(*sys.argv[1:])
