"""Byte pin of a full `heartlab run --save-models` bundle.

Every model family runs on every task it supports, with SMOTE, one
sampled SHAP request and one LIME request, so any change to fitting,
prediction, persistence, metrics or explanation output shows up here as
a named file whose sha256 moved. The run uses the numpy kernels
(HEARTLAB_NO_NUMBA=1) so the manifest's kernel_backend is the same on
every machine, and a relative output_dir so the manifest does not record
a temporary path.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CONFIG = {
    "dataset": {"fixture": {"n": 400, "seed": 5}},
    "smote": {"mode": "balance", "k": 5},
    "models": [
        {"name": "cart_c", "family": "cart", "task": "classification",
         "hyperparams": {"max_depth": 5, "feature_subsample": 3}},
        {"name": "rf_c", "family": "random_forest", "task": "classification",
         "hyperparams": {"n_trees": 5, "max_depth": 6}},
        {"name": "gbt_c", "family": "gbt", "task": "classification",
         "hyperparams": {"n_rounds": 8, "learning_rate": 0.3}},
        {"name": "knn_c", "family": "knn", "task": "classification",
         "hyperparams": {"k": 7, "weighting": "inverse-distance"}},
        {"name": "nb_c", "family": "gaussian_nb", "task": "classification"},
        {"name": "svm_c", "family": "linear_svm", "task": "classification",
         "hyperparams": {"epochs": 5}},
        {"name": "logit_c", "family": "logistic", "task": "classification",
         "hyperparams": {"ridge": 0.1}},
        {"name": "cart_r", "family": "cart", "task": "regression",
         "hyperparams": {"min_samples_leaf": 3}},
        {"name": "rf_r", "family": "random_forest", "task": "regression",
         "hyperparams": {"n_trees": 4, "bootstrap": False, "feature_subsample": 2}},
        {"name": "gbt_r", "family": "gbt", "task": "regression",
         "hyperparams": {"n_rounds": 6, "max_depth": 2, "lambda_leaf": 0.5}},
        {"name": "knn_r", "family": "knn", "task": "regression"},
        {"name": "ols_r", "family": "ols", "task": "regression"},
        {"name": "ridge_r", "family": "ridge", "task": "regression",
         "hyperparams": {"lam": 2.0}},
        {"name": "lasso_r", "family": "lasso", "task": "regression",
         "hyperparams": {"lam": 0.02}},
        {"name": "svr_r", "family": "linear_svr", "task": "regression",
         "hyperparams": {"epochs": 5, "eps": 0.05}},
    ],
    "explain": [
        {"model": "rf_c", "method": "shap", "rows": [0], "mode": "sampled",
         "n_permutations": 20, "background_size": 8},
        {"model": "gbt_r", "method": "lime", "rows": [1], "n_samples": 300},
    ],
    "output_dir": "bundle",
    "seed": 11,
}

DIGESTS = {
    "confusion_real_cart_c.csv": "c875a2831926ff279dee6beb1c0078068e4fa0c40316fc5d76c920b791d2ad5e",
    "confusion_real_gbt_c.csv": "7b6695da3936150b4e8df3603f1cd65bf4d2e2142655f4c473b60ce55cc886ac",
    "confusion_real_knn_c.csv": "ab3f7fe00391637e6639f4b76f47d1b138c5dd5e1e8e0f3498b1da705d055888",
    "confusion_real_logit_c.csv": "9e559e03632944171e4e305bda807b862d37ede95809f8a63aed3871a28481fa",
    "confusion_real_nb_c.csv": "2bd0e5bc0b135ddcd6a5e0f2470aa9bfe2b46af716dd823f5db757fa1cd214bb",
    "confusion_real_rf_c.csv": "9c25dd568ed7dafa1ef8f54f451c5fb68b4b45b4fc82628246d04bb8de1e0f98",
    "confusion_real_svm_c.csv": "5b3d0ff4a06a45781b94a4647ce77f3f70368a7425c2771befdf9cae803019ff",
    "confusion_synthetic_cart_c.csv": "54c008052fe7f270b52114e9c153ecba93107e8db14f7a301c2a07ca656f3fe0",
    "confusion_synthetic_gbt_c.csv": "ea56fe0f3b1307d5dff4cabb165cd2cf6cf26c76af8bb724cc9557703af0d7e4",
    "confusion_synthetic_knn_c.csv": "359574611bd5143afcf424aa08fe7b7c111d1439804cfae8c2c9687b155b378d",
    "confusion_synthetic_logit_c.csv": "d91f773a289c67a699debd9a44d5b4d7c6ab6cf6e325011aaa0f5d32df942086",
    "confusion_synthetic_nb_c.csv": "f8a6e3b42ea3c2a39cf5e82055e221f502412bfa469001748f50fdac53c17e30",
    "confusion_synthetic_rf_c.csv": "bf76242876f03dd1fad37535c3afc7fc2534a546fc03ab12036b97fcd4e7c625",
    "confusion_synthetic_svm_c.csv": "c20a297258910dec4689713fa49f642158980e710172957026016410c15f7e0b",
    "lime_synthetic_gbt_r_1.csv": "fe6c8dbc9b480af7d5c23f5beb34e78c76383524770b2916f7bba04e41f2cb18",
    "manifest.json": "aecbfafc8c736cbe8d2409ce24e632b7c4617b0fbc7e80e9c9a6802d49d6f6c1",
    "metrics.csv": "b3cd30ffeba28b5638cf947befe2addce0d6a42c41676c9e128414f5f179a66d",
    "model_real_cart_c.json": "f0e174aeb19f1fcfb98e130a511b87e2b2edcf8b5f3cf359168d70f405827595",
    "model_real_cart_r.json": "fd5ab939ec7ae9b03ce78000ccb3ab9821a040a4d4c4dc513258a657b5bbe25e",
    "model_real_gbt_c.json": "4570f46812d065b292dc1113112e599ab112c39b8f78ece50a3628e5cb462ddf",
    "model_real_gbt_r.json": "8710a8d69084af96294fefec0e42da004ce2ca5a4739dca143457b54363235bd",
    "model_real_knn_c.json": "f7ec7ba2c88baeffea956a09980ad93ca15d70952022cd8c05a9bc5c420e5a5e",
    "model_real_knn_r.json": "1816fd2413d84cc6cb4dc4b48da93c72720e2c560678326b529ff00bc9ab721c",
    "model_real_lasso_r.json": "1e84a61deef2108e5f69bdf6c094441b7534a26d39ffa21ec3f15f2608e68fd7",
    "model_real_logit_c.json": "167ddcf86dde5553c734730e7320ff2e6a58bd040f2e0874dbb4c7ae33946220",
    "model_real_nb_c.json": "5864d494d1c5a495327ffe7b80e7cad4b4fafe802103c7955b5940e6095d965a",
    "model_real_ols_r.json": "5be7df9d6a9294de60d90a915f17594e7e1b8ca222b7ec6415d5ab60f21064b0",
    "model_real_rf_c.json": "ffadd2e06dfeabdfbf911e61ed137b317b015c94b5f0cba8e459c050dba74b46",
    "model_real_rf_r.json": "63e1f86027a7b420e18bf5833eb69bda2b9f427d6dc11814d7d86b417600205d",
    "model_real_ridge_r.json": "2514bb419c937b652ad0b27b9c461e92a7283f7f5e9ae88bfe3c63e2be680743",
    "model_real_svm_c.json": "c548d804e5f4fefba7e0fe7db25382f80582319345920f77cdd688ec347afaac",
    "model_real_svr_r.json": "88462637a2a5361fd9126f4176ac5e9f965f76cda87d9c8ee90cfd565657ee8f",
    "model_synthetic_cart_c.json": "f966f25c457fc6cddae76d28bf96779054f9f433aa106ba5ce2774752f4e4466",
    "model_synthetic_cart_r.json": "06b765ab4f7d19ca03933473fe3709d4f0529182c951cec7a80eafebb0e4bf7d",
    "model_synthetic_gbt_c.json": "933019a40ce03f20408c5fff059b5fcc4a00bc8bedc1b9192376e6a9b1518685",
    "model_synthetic_gbt_r.json": "189b4938ac7a1fec69f79d1a235585ffd36b966267490d89d4903b50850569dd",
    "model_synthetic_knn_c.json": "bc47a1b5165ea4b7d7f1cc4cf9cf67b4fe22fc63e2789bf2ec3d096cb1634abf",
    "model_synthetic_knn_r.json": "ef62eb2960a44e732352da36a0a7bd1a88425fbb0f017f2a7730912a46f93f91",
    "model_synthetic_lasso_r.json": "d6619e843a3aa4b1e4557d4a2e45f63061ad951cc6e1a8c0d9f0c22f0d1a7fc4",
    "model_synthetic_logit_c.json": "b8a974d1936166ddced4caa147093f59c6e4b74bd0a965a3c3076f73e0aa6819",
    "model_synthetic_nb_c.json": "1be55a4902fbdf0671796e25596ff76b6fb5676b7c09a6c58f9213a709b1a95c",
    "model_synthetic_ols_r.json": "29a0e88db05782c2111b5829a740083dd4f1b880d29ab07527beac6121d79f9c",
    "model_synthetic_rf_c.json": "bd2e891b198409b783f610e8125aa4b581b013c91e917977a8018be9706de1ee",
    "model_synthetic_rf_r.json": "8deffbd3b8a6e17f3d6296768b39678553b6c8185ddbcc4f8e7666ea15c0f806",
    "model_synthetic_ridge_r.json": "b68192fc0cadc041397f56888d8f57adf50114f44388403eafa8db58d79463e3",
    "model_synthetic_svm_c.json": "dbc226d33c8ff0f8c23d8da0d67d3ee4c84aae5961900bc337168d202e9b4f3c",
    "model_synthetic_svr_r.json": "cee44306045d662c69b7ed6c7613182dfec3f58f6ca6b0f18e812db181ad1766",
    "residuals_real_cart_r.csv": "7cb72fe2e2c39a3d9a171f60420881144c25c69837312680d83b9a27c21f3690",
    "residuals_real_gbt_r.csv": "a88086cf3bc9c45f3b004f40717e3d72e241f09ba1da4baaec60a306d44e2093",
    "residuals_real_knn_r.csv": "f62605b82bf9220c5886f3508e6e0f308ab6e6860ab8088f4cb2b393551dba72",
    "residuals_real_lasso_r.csv": "b047967809e4d42a82fa50708cf31dc10db43aa2e6cafd46ffc3e597f186b48a",
    "residuals_real_ols_r.csv": "49d3de87a2098782f0b50358413fd0ccfb3a881e23af92db99acac5ee2808a5a",
    "residuals_real_rf_r.csv": "9df7a47ad8ccd7b0fd6fe9d373f9b194c8d32e7b6129382847027748112a67a6",
    "residuals_real_ridge_r.csv": "a61689d7ba9118a2e30f43c549b8c88f0033f3150ff6d89e2a9ee5ccadf71b82",
    "residuals_real_svr_r.csv": "91409b7c20f58f8ae0167385332689303e1378f4e361a6e0efd006f43eca1caf",
    "residuals_synthetic_cart_r.csv": "3772af1613c2c71ab69b964aba806aed36bdfb5c7e7fb9ef0e6fe0fefa57ca97",
    "residuals_synthetic_gbt_r.csv": "72ce19f745341f46987d27d6f90f1fc596ca2582ce23d760c340e36c62605a1d",
    "residuals_synthetic_knn_r.csv": "7120b1aeb218c5fbf2a4e992ac1859d227a0e5ef7bc86ea57000ec75b8d37d7b",
    "residuals_synthetic_lasso_r.csv": "ed4d53da908182b91b345ed04caa78c5a895066a09772fe235d1ffa8f9a9b795",
    "residuals_synthetic_ols_r.csv": "689ddeffc14260f887ed78f8f6d678f5e1f875e521c098d3c47c77d2e4da1fcb",
    "residuals_synthetic_rf_r.csv": "594bbc8913edf63a0ada0827438c7d42bda399ec680eff7d029a2c16d4f38fe6",
    "residuals_synthetic_ridge_r.csv": "0ff4fc948317791e87b3c71ff80f43c7935bcf4d94be6daf450e3f833b18bbdd",
    "residuals_synthetic_svr_r.csv": "efc17b72c9301cac52dac7bd164584077f7b6d17bcfe7c80b5d9abbfc5f0fd5d",
    "roc_real_cart_c.csv": "4b5f47b0f8d7d1422cd4029c362342a7bd5031c2f9735acff36dd365cfacdf1c",
    "roc_real_gbt_c.csv": "6a65d0bc19decc1a57a19d366c1f1fd070832f31cb994a62cad2d16a5d7071ef",
    "roc_real_knn_c.csv": "83f0a5c4ccdd9afbc7214fa8690f5b39fd7dca625dc32133f51c171ce4b1a0bb",
    "roc_real_logit_c.csv": "cd74ebfaa4330615cc1deed55e4ef92a4ee495bbe4d9149d8acb1e7ec91e1123",
    "roc_real_nb_c.csv": "ebb7d5b6aa219876a5f72e803f58d55726264e343fe1efead192e90b7ad77487",
    "roc_real_rf_c.csv": "1ea1e977548b4179e1026089b307ba4a1456b105d3c52954778424cb006fa364",
    "roc_real_svm_c.csv": "72a56fc5c5f0076ea2a9648c5e63c695a55657e168042195b835c4270f2f41a6",
    "roc_synthetic_cart_c.csv": "f8bb50d39826689f087f948b7c01db2d20b1a2d3a7f4095e75c9c2781ccb8cbc",
    "roc_synthetic_gbt_c.csv": "d10e39c22884d71d2249492100a1c30ab9f886a8d219bd8e5a0f4eb96a12a364",
    "roc_synthetic_knn_c.csv": "caecf023aae300fbc1c1f2bac7d089ff72792f529027f7133975345ebf124a0c",
    "roc_synthetic_logit_c.csv": "2cc3fd9a475262fd9f452999636d6688ae294bee2cef899dd6fcbab0beb29d86",
    "roc_synthetic_nb_c.csv": "f4b4784166a9b642e1de21c5520985039b3cd9313226c94eae5e849712dc0ef6",
    "roc_synthetic_rf_c.csv": "fc0a99243ef6af0765d121e7cb883cd466db3c47918536d98bc5294ec697a2d9",
    "roc_synthetic_svm_c.csv": "e544752e0ed3569a3bc7c78e85f5b20be91b3138465be8c9dfb174568e6aeded",
    "shap_synthetic_rf_c.csv": "0322661cf0117d60bf107cb3af518546008fc4b696c579a0572403f9ad77e925",
    "shap_synthetic_rf_c_0.csv": "88c6c875e51a9a3c213418952271178c75fa39ebe571c9a046d2edec4bafe02b",
}


def test_saved_bundle_bytes_are_pinned(tmp_path):
    (tmp_path / "cfg.json").write_text(json.dumps(CONFIG))
    env = dict(os.environ, HEARTLAB_NO_NUMBA="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-m", "heartlab", "run", "cfg.json", "--save-models"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted((tmp_path / "bundle").iterdir())}
    differ = sorted(name for name in set(got) | set(DIGESTS)
                    if got.get(name) != DIGESTS.get(name))
    assert not differ, f"bundle files differ from the pinned bytes: {differ}"
