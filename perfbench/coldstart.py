"""Cold start of the in-process solve path, for ``setup_s``.

Reads ``{"problem": ..., "deadline_s": ...}`` on stdin, imports the
library, solves with ``portfolio`` and prints the answer as one JSON line.
The parent times it from process start to the answer line.

    PYTHONPATH=src python3 perfbench/coldstart.py < request.json
"""

import json
import sys


def main() -> int:
    request = json.load(sys.stdin)
    from repro import solve
    from repro.model.serialization import problem_from_dict

    problem = problem_from_dict(request["problem"])
    result = solve(problem, method="portfolio",
                   deadline_s=request.get("deadline_s"))
    placement = (dict(result.assignment.placement)
                 if result.assignment is not None else None)
    print(json.dumps({"objective": result.objective, "status": result.status,
                      "placement": placement}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
