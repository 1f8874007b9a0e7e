"""Write expected.json: the outputs the program gives on every workload
choice at this commit.  Run only when an output change is intended:

    python3 bench/record_expected.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from momentpde import cli  # noqa: E402
from workloads import EXPECTED_PATH, WORKLOADS, sha256  # noqa: E402


def main() -> int:
    expected = {}
    for name, workload in WORKLOADS.items():
        expected[name] = {}
        for index, key in enumerate(workload.choices):
            with tempfile.TemporaryDirectory(prefix=".bench-", dir=HERE.parent) as tmp:
                op = workload.prepare(index, Path(tmp))
                entry = {}
                for label, argv, out in op.commands:
                    code = cli.main(argv)
                    if code != 0:
                        print(f"{name} {key} {label}: exit code {code}", file=sys.stderr)
                        return 1
                    data = out.read_bytes()
                    if label == "estimate":
                        entry["s_hat"] = json.loads(data)["s_hat"]
                    else:
                        entry[f"{label}_sha256"] = sha256(data)
                expected[name][key] = entry
                print(name, key, entry)
    EXPECTED_PATH.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n",
                             encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
