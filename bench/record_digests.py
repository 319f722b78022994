"""Record the output gate: the sha256 of every job's deterministic output.

    python3 bench/record_digests.py

Run it only on a commit whose outputs are known to be right; every
benchmark run then compares against ``bench/digests.json``.
"""

import run

if __name__ == "__main__":
    run.import_package()
    import workloads
    workloads.record_gate()
