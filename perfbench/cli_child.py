"""One cold, traced CLI command: `python -X importtime cli_child.py <command>`.

Imports photonam in a fresh interpreter, wraps its public functions (see
spans.py), runs `photonam.cli.main([command])` with default flags, and prints
one JSON object: the exit code, the command's stdout, the number of modules
`import photonam` loaded, the spans and the call counts. Import timings come
from the interpreter's `-X importtime` report on stderr, which the parent
parses. Nothing but `sys` is imported before photonam, so the import is
measured as a user's first `import photonam` would be.
"""

import sys


def main() -> None:
    before = len(sys.modules)
    import photonam

    modules_loaded = len(sys.modules) - before

    import contextlib
    import io
    import json

    import photonam.cli
    import spans

    recorder = spans.Recorder()
    recorder.install(photonam)
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = photonam.cli.main([sys.argv[1]])
    recorder.uninstall()
    print(
        json.dumps(
            {
                "exit": code,
                "stdout": buffer.getvalue(),
                "modules_loaded": modules_loaded,
                "spans": recorder.spans,
                "counts": recorder.counts,
            }
        )
    )


if __name__ == "__main__":
    main()
