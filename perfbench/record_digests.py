"""Record the SHA-256 of every pool case's output into digests.json.

    python3 perfbench/record_digests.py [WORKLOAD ...]

Run once, at the commit whose outputs are the reference; the benchmark then
fails any case whose output differs.  Each recorded case must also pass its
own checks.  Named workloads are re-recorded; others keep their digests.
"""

import json
import sys

from run import DIGESTS, digest, set_up
from workloads import WORKLOADS


def main(names) -> int:
    digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    for name in names or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        _, pkg = set_up(workload)
        for case in workload.pool(pkg):
            digests[case.key] = digest(case.run())
            print(f"{name}: {case.key}", flush=True)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
