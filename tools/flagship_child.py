"""Subprocess payload for the flagship kill-resume test: run the
REAL benchmark flagship (synth pages -> extract-check -> points
checkpoint -> concurrent PIP join + manifest-committed per-tile TIN)
in its own Ray session and print one JSON line. The parent test
SIGKILLs this process mid-TIN and relaunches it with --resume; the
manifest must make the second run skip every committed tile
(state/manifest.py — the generalization of the reference's
LockedCells "don't redo finished cells" mask,
LasUtility/DEM/Triangulation.cs:275-276).

Usage: python tools/flagship_child.py OUT_DIR N_DOCS NUM_CPUS [--resume]
"""

from __future__ import annotations

import json
import os
import sys
import time


def main() -> None:
    out_dir, n_docs, num_cpus = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    resume = "--resume" in sys.argv

    import ray

    ray.init(
        address="local",
        num_cpus=num_cpus,
        include_dashboard=False,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from bench import run_flagship

    t0 = time.perf_counter()
    res = run_flagship(n_docs, out_dir, resume=resume)
    print(
        json.dumps(
            {
                "wall_s": round(time.perf_counter() - t0, 2),
                "n_tiles": res["n_tiles"],
                "n_pip_rows": res["n_pip_rows"],
            }
        )
    )
    ray.shutdown()


if __name__ == "__main__":
    main()
