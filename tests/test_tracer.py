"""perfbench/tracer.py against the package it patches.

The tracer wraps heartlab functions by module attribute name, from
outside src/. A rename in heartlab breaks `perfbench/run.py --trace 1`
without failing any other test; this one runs a small config through the
installed tracer and checks that every layer it names still reports."""

import importlib.util
import json
from pathlib import Path

from heartlab.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_spans_every_layer_and_restores(tmp_path):
    tracer_mod, layers = _load("tracer"), _load("layers")
    models = [{"name": fam, "family": fam, "task": task, "hyperparams": hp}
              for fam, task, hp in [
                  ("cart", "classification", {"max_depth": 4}),
                  ("random_forest", "classification", {"n_trees": 3, "max_depth": 4}),
                  ("gbt", "classification", {"n_rounds": 3}),
                  ("logistic", "classification", {}),
                  ("knn", "classification", {}),
                  ("gaussian_nb", "classification", {}),
                  ("linear_svm", "classification", {"epochs": 2}),
                  ("ols", "regression", {}),
                  ("ridge", "regression", {}),
                  ("lasso", "regression", {}),
                  ("linear_svr", "regression", {"epochs": 2})]]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "dataset": {"fixture": {"n": 200, "seed": 3}},
        "models": models,
        "explain": [
            {"model": "random_forest", "method": "shap", "rows": [0], "mode": "sampled",
             "n_permutations": 4, "background_size": 4},
            {"model": "ols", "method": "lime", "rows": [0], "n_samples": 100},
        ],
        "output_dir": str(tmp_path / "out"),
        "seed": 7,
    }))

    tracer = tracer_mod.Tracer("test")
    tracer.install()
    patched = list(tracer._patches)
    try:
        assert main(["run", str(cfg)]) == 0
    finally:
        tracer.uninstall()

    names = {span[2] for span in tracer.spans}
    fitted = {span[7]["family"] for span in tracer.spans if span[2] == "models.fit"}
    assert fitted == set(layers.FAMILIES)
    want = {"trees.grow", "linear.fit", "models.evaluate", "models.scalar_output",
            *(f"kernels.{k}" for k in layers.KERNELS)}
    assert want <= names, sorted(want - names)
    assert patched
    for module, attr, original in patched:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"
