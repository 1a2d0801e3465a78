"""Fresh-process helpers of bench/run.py; each prints one JSON line.

    python3 bench/child.py setup WORKLOAD
        time to import shbif and fill the workload's first-call caches
    python3 bench/child.py reference WORKLOAD SEED N_OPS SCRATCH
        untraced wall time of the ops a traced run makes
"""

import json
import sys
import time

if __name__ == "__main__":
    t0 = time.perf_counter()
    import workloads  # imports numpy, scipy and shbif

    mode, name = sys.argv[1:3]
    if mode == "setup":
        workloads.warm(workloads.WORKLOADS[name])
        print(json.dumps({"setup_s": time.perf_counter() - t0}))
    else:
        seed, n_ops, scratch = int(sys.argv[3]), int(sys.argv[4]), sys.argv[5]
        print(json.dumps({"wall_s": workloads.reference_wall(name, seed, n_ops, scratch)}))
