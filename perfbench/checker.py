"""Checker process for one sweep: `python checker.py <workload>`.

Answers once with an empty list when its imports are done, so that they do
not compete with the first timed operation. Then reads pickled (input,
outputs) pairs from stdin, one per operation, and answers each with a pickled
list of failure messages. It never imports
photonam, so every reference value it compares against is computed apart from
the program. Running it in its own process also keeps scipy.optimize and the
checks' arrays out of the worker's peak memory.
"""

import pickle
import sys
import traceback

import oracles


def main() -> None:
    check = oracles.CHECKS[sys.argv[1]]
    requests, replies = sys.stdin.buffer, sys.stdout.buffer
    pickle.dump([], replies)  # imports are done; the worker may start its clock
    replies.flush()
    while True:
        try:
            inp, out = pickle.load(requests)
        except EOFError:
            break
        try:
            failures = check(inp, out)
        except Exception:  # a crashing check is a failed operation, not a dead run
            failures = ["check raised " + traceback.format_exc(limit=2)]
        pickle.dump(failures, replies)
        replies.flush()
    if "photonam" in sys.modules:
        raise SystemExit("checker imported photonam; its checks would not be independent")


if __name__ == "__main__":
    main()
