"""Start ``tpms-energy serve``, optionally with the span tracer installed.

Usage::

    python3 perfbench/serve_launcher.py [--trace-out FILE] [--probe-out FILE] serve --port 0 ...

Everything after the launcher's own options is handed to
``repro.cli.main``.  With ``--trace-out`` the same wrappers as the
benchmark's traced run are installed first; when the server exits (SIGTERM
drains it) the launcher writes the per-layer totals to FILE and the spans
next to it (``FILE`` with a ``.spans.jsonl`` suffix).  With ``--probe-out``
the job worker runs one reference-kernel probe as each job starts and the
launcher writes the probes' ``[start, end]`` times to FILE when the server
exits; the benchmark scales request times by them.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import Phase, probe_kernel, use_checkout_source  # noqa: E402


def _install_probes(probes: list) -> None:
    """A reference-kernel probe in the job worker at the start of every job."""
    from repro.serve import jobs

    phase = Phase()
    for name in ("_run_study", "_run_fleet"):
        original = getattr(jobs.JobManager, name)

        @functools.wraps(original)
        def run(self, job, request, _original=original):
            probes.append(probe_kernel(phase))
            return _original(self, job, request)

        setattr(jobs.JobManager, name, run)


def main(argv: list[str]) -> int:
    use_checkout_source()
    options = {"--trace-out": None, "--probe-out": None}
    while argv[:1] and argv[0] in options:
        options[argv[0]] = Path(argv[1])
        argv = argv[2:]
    trace_out, probe_out = options["--trace-out"], options["--probe-out"]
    recorder = None
    if trace_out is not None:
        from perfbench import tracer

        recorder = tracer.Recorder()
        tracer.install(recorder)
    # Outside the tracer's job span: a probe is not job work.
    probes: list = []
    if probe_out is not None:
        _install_probes(probes)
    from repro.cli import main as cli_main

    code = cli_main(argv)
    if probe_out is not None:
        probe_out.write_text(json.dumps(probes), encoding="utf-8")
    if recorder is not None:
        spans_path = trace_out.with_suffix(".spans.jsonl")
        document = {
            "totals": recorder.totals(),
            "layers_seen": sorted(recorder.span_layers()),
            "missing": recorder.missing,
            "skipped": recorder.skipped,
            "spans_file": spans_path.name,
            "spans": recorder.write_spans(spans_path),
        }
        trace_out.write_text(json.dumps(document), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
