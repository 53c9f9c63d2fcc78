"""Record the corpus workload's golden stdout digests.

    python3 perfbench/record_golden.py

Runs every request of the fixed corpus pool once through
``dbmorph.cli.main``, checks each exit code against the one the generator
planted, and writes ``golden_corpus.json``.  Re-record only when a change
to dbmorph is meant to change its output bytes.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys

import run
import workloads


def main() -> int:
    work = run.ROOT / ".perfbench_work" / "golden"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        cli = run.import_cli()
        golden, wrong = {}, []
        for key, (cmd, argv, planted) in workloads.corpus_pool(work, set(range(workloads.CORPUS_POOL))).items():
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(list(argv))
            if code != planted:
                wrong.append(f"{key} {cmd} exited {code}, planted {planted}")
            golden[key] = workloads.digest(out.getvalue())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if wrong:
        print("\n".join(wrong), file=sys.stderr)
        return 1
    workloads.GOLDEN.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(golden)} digests written to {workloads.GOLDEN.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
