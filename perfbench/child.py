"""One fresh process of the benchmark: an import probe or one `heartlab run`.

    python3 child.py import <t0> <result.json>
    python3 child.py run <t0> <result.json> <config.json> [<spans.jsonl> <run_id>]

t0 is time.monotonic() in the parent just before it started this
process; setup_s runs from there to `import heartlab` done with its
kernel backend chosen. A run times `heartlab.cli.main(["run", config])`,
which is config parse to bundle written, and, when a spans path is
given, records spans around heartlab's layers and writes them there.
The result JSON goes to result.json. argparse is not used, so nothing
but the interpreter itself runs before the import being timed.
"""

import sys
import time


def main() -> int:
    mode, t0, result_path = sys.argv[1], float(sys.argv[2]), sys.argv[3]
    import heartlab

    backend = heartlab.backend_name()
    setup_s = time.monotonic() - t0

    import importlib.util
    import json
    import platform
    import resource

    import numpy
    from heartlab.ensembles import default_jobs

    result = {"setup_s": setup_s, "backend": backend,
              "numba": importlib.util.find_spec("numba") is not None,
              "python": platform.python_version(), "numpy": numpy.__version__,
              "heartlab_file": heartlab.__file__, "default_jobs": default_jobs()}
    if mode == "run":
        import heartlab.cli

        config = sys.argv[4]
        tracer = None
        if len(sys.argv) > 5:
            from tracer import Tracer

            tracer = Tracer(sys.argv[6])
            tracer.install()
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        w0 = time.perf_counter()
        rc = heartlab.cli.main(["run", config])
        run_s = time.perf_counter() - w0
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        jobs = result["default_jobs"]
        result.update({
            "rc": rc, "run_s": run_s,
            "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
            "peak_rss_mb": ru1.ru_maxrss / 1024.0,
        })
        if tracer is not None:
            tracer.uninstall()
            from layers import layer_metrics, self_times

            result["layers"] = layer_metrics(tracer.spans, run_s, jobs)
            result["self_s"] = self_times(tracer.spans)
            result["spans"] = len(tracer.spans)
            with open(sys.argv[5], "w") as fh:
                for s in tracer.spans:
                    fh.write(json.dumps([tracer.run_id, *s]) + "\n")
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
