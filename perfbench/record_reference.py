"""Write reference.json: every unit's output summary at the default seed.

Run from the repository root:

    python3 perfbench/record_reference.py

The benchmark compares each unit's output against this file when it
runs at the default seed.  Record it again only in a change that alters
report bytes on purpose, and say so in that change.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main() -> int:
    run._pin_environment()
    sys.path.insert(0, str(run.SRC))
    import workloads

    work_dir = run.OUT / "record"
    work_dir.mkdir(parents=True, exist_ok=True)
    doc = {"seed": run.DEFAULT_SEED}
    try:
        for name in run.WORKLOADS:
            entries = {}
            for unit in workloads.build(name, run.DEFAULT_SEED,
                                        str(work_dir)):
                seen = unit.inspect(unit.run())
                if seen.problems:
                    raise SystemExit(f"{name} {unit.label}: {seen.problems}")
                entries[unit.label] = seen.summary
            doc[name] = entries
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    (run.HERE / "reference.json").write_text(
        json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
