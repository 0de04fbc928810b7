"""Byte pin of a full `heartlab run --save-models` bundle.

Every model family runs on every task it supports, with SMOTE, one
sampled SHAP request and one LIME request, so any change to fitting,
prediction, persistence, metrics or explanation output shows up here as
a named file whose sha256 moved. The run uses a relative output_dir so
the manifest does not record a temporary path.
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
    "confusion_real_cart_c.csv": "fec828cc7020f0cd1692fc4de7e379cd467a0d8d5991d2fb7baef4797be475ce",
    "confusion_real_gbt_c.csv": "7b6695da3936150b4e8df3603f1cd65bf4d2e2142655f4c473b60ce55cc886ac",
    "confusion_real_knn_c.csv": "ab3f7fe00391637e6639f4b76f47d1b138c5dd5e1e8e0f3498b1da705d055888",
    "confusion_real_logit_c.csv": "9e559e03632944171e4e305bda807b862d37ede95809f8a63aed3871a28481fa",
    "confusion_real_nb_c.csv": "2bd0e5bc0b135ddcd6a5e0f2470aa9bfe2b46af716dd823f5db757fa1cd214bb",
    "confusion_real_rf_c.csv": "5409ca142608907967983ff9f608a7ea19207ffbfe05f91dde313b7607400104",
    "confusion_real_svm_c.csv": "5b3d0ff4a06a45781b94a4647ce77f3f70368a7425c2771befdf9cae803019ff",
    "confusion_synthetic_cart_c.csv": "2bf326a5c139d91b2676af154bbe55fd76c8b3f401f19def7adcef65f15e836a",
    "confusion_synthetic_gbt_c.csv": "ea56fe0f3b1307d5dff4cabb165cd2cf6cf26c76af8bb724cc9557703af0d7e4",
    "confusion_synthetic_knn_c.csv": "359574611bd5143afcf424aa08fe7b7c111d1439804cfae8c2c9687b155b378d",
    "confusion_synthetic_logit_c.csv": "d91f773a289c67a699debd9a44d5b4d7c6ab6cf6e325011aaa0f5d32df942086",
    "confusion_synthetic_nb_c.csv": "f8a6e3b42ea3c2a39cf5e82055e221f502412bfa469001748f50fdac53c17e30",
    "confusion_synthetic_rf_c.csv": "7d453d038ffd69e8d932f225997dc6e7d3490e9b3104fbca4c1d3d89fca70c7a",
    "confusion_synthetic_svm_c.csv": "967ec1bffe52d6de1416dff5ff57acc44f3aae42adebe4405122f6200fcb0c6f",
    "lime_synthetic_gbt_r_1.csv": "64b911f93a6103a05f8d3ab6d6abc754b35b85819a4d4ebf6370cb3881c47184",
    "manifest.json": "aecbfafc8c736cbe8d2409ce24e632b7c4617b0fbc7e80e9c9a6802d49d6f6c1",
    "metrics.csv": "8e21bd7f5fc50ccfd688cfd19a1ef5e595489ed545fa38f20d2396cedb817b56",
    "model_real_cart_c.json": "c605dc007988a034be9e23a070f2e7a59ed3609869064ff95aef4dfb6cfe901a",
    "model_real_cart_r.json": "fd5ab939ec7ae9b03ce78000ccb3ab9821a040a4d4c4dc513258a657b5bbe25e",
    "model_real_gbt_c.json": "4570f46812d065b292dc1113112e599ab112c39b8f78ece50a3628e5cb462ddf",
    "model_real_gbt_r.json": "abd62498f83b1348c00b89800d064002805b29913a5f57bcedc11e26d0fa0df6",
    "model_real_knn_c.json": "f7ec7ba2c88baeffea956a09980ad93ca15d70952022cd8c05a9bc5c420e5a5e",
    "model_real_knn_r.json": "1816fd2413d84cc6cb4dc4b48da93c72720e2c560678326b529ff00bc9ab721c",
    "model_real_lasso_r.json": "1e84a61deef2108e5f69bdf6c094441b7534a26d39ffa21ec3f15f2608e68fd7",
    "model_real_logit_c.json": "167ddcf86dde5553c734730e7320ff2e6a58bd040f2e0874dbb4c7ae33946220",
    "model_real_nb_c.json": "5864d494d1c5a495327ffe7b80e7cad4b4fafe802103c7955b5940e6095d965a",
    "model_real_ols_r.json": "8625e4dd27475cddcbc9e1e2a3a0776e67f5982c432563c413ec5d3d271abc15",
    "model_real_rf_c.json": "10aa79ab27f19cffb5f416325a9ce17679c5250adfd7f3afd0b6189de5c47bd6",
    "model_real_rf_r.json": "83b249ed98d7095b7c3ca5ccaaadb86c4ecff02fcc03e0532efe2fa4328d1aeb",
    "model_real_ridge_r.json": "d30b316079d394cb9342396b4dc128d6b715eecb930f421bd582b2c378ff5b7d",
    "model_real_svm_c.json": "e33c698407591592a4ce6a3d6604af746ba24700457fda138f814120f6eb643c",
    "model_real_svr_r.json": "25fd4ff7dabba554969ae8107cb5919e1960d7a6f1fea33218b4c75982c1109d",
    "model_synthetic_cart_c.json": "09dd1f464ae8d4d354889ea2bd7b05a39cfb279796a0453068c664d753e7fd13",
    "model_synthetic_cart_r.json": "06b765ab4f7d19ca03933473fe3709d4f0529182c951cec7a80eafebb0e4bf7d",
    "model_synthetic_gbt_c.json": "933019a40ce03f20408c5fff059b5fcc4a00bc8bedc1b9192376e6a9b1518685",
    "model_synthetic_gbt_r.json": "4f65b65d76d6d6efc1f7bb5da96f82edcad5f2c4d3ebb2f576e60fbedaaee3da",
    "model_synthetic_knn_c.json": "bc47a1b5165ea4b7d7f1cc4cf9cf67b4fe22fc63e2789bf2ec3d096cb1634abf",
    "model_synthetic_knn_r.json": "ef62eb2960a44e732352da36a0a7bd1a88425fbb0f017f2a7730912a46f93f91",
    "model_synthetic_lasso_r.json": "d6619e843a3aa4b1e4557d4a2e45f63061ad951cc6e1a8c0d9f0c22f0d1a7fc4",
    "model_synthetic_logit_c.json": "b8a974d1936166ddced4caa147093f59c6e4b74bd0a965a3c3076f73e0aa6819",
    "model_synthetic_nb_c.json": "1be55a4902fbdf0671796e25596ff76b6fb5676b7c09a6c58f9213a709b1a95c",
    "model_synthetic_ols_r.json": "b170bb4ac0c2aa7c5c7f32b24a7eb6216287d2d089bd6dd80aa32e0b691c315e",
    "model_synthetic_rf_c.json": "d32d7b691f466c6ae47d264d0fc6ccc624b812204fb3942bd2112205e62dde84",
    "model_synthetic_rf_r.json": "632b61ac8211bd0ab2a487b0aa9ab8db63f6ea163ab26a9c80ff0e6864cd5f8b",
    "model_synthetic_ridge_r.json": "fb7a317bec1a1b7f2125d64b651478fca4661c585528c380e3b7bbb8b48c3c6d",
    "model_synthetic_svm_c.json": "806aa5abef2b3ec0a14e1016892612817d5f44825069e2a821642ab283e8486b",
    "model_synthetic_svr_r.json": "2c558882cd4b7a228602bf582bcaa3d48cb1c2e5332ecc6c3ed4993683c1c6c1",
    "residuals_real_cart_r.csv": "7cb72fe2e2c39a3d9a171f60420881144c25c69837312680d83b9a27c21f3690",
    "residuals_real_gbt_r.csv": "a2b00ffe875da3bda4524014ffe9b355a34c747be5c5409e6506bb8952741b22",
    "residuals_real_knn_r.csv": "f62605b82bf9220c5886f3508e6e0f308ab6e6860ab8088f4cb2b393551dba72",
    "residuals_real_lasso_r.csv": "d94a1c7febfbf4cf64ff8e8402ae97c41f8172eaaa6d7985de9401dcf1ad4ee7",
    "residuals_real_ols_r.csv": "9ffc37f0101cb8b0565a820de5e19629c5dfa58057957eff52cd408b22085702",
    "residuals_real_rf_r.csv": "f178f123159f1cc9698785c6849339beee1fd442ef91836d11a983cdc8bbdee4",
    "residuals_real_ridge_r.csv": "1e3e3c5149eb6fc717de1319dc37100945fa6713c58a79989aa504b6781051c5",
    "residuals_real_svr_r.csv": "df4019fefd05ef6e9ec38afa7c200dc149d12a35ade7b7309b350644903161c3",
    "residuals_synthetic_cart_r.csv": "3772af1613c2c71ab69b964aba806aed36bdfb5c7e7fb9ef0e6fe0fefa57ca97",
    "residuals_synthetic_gbt_r.csv": "653161a16d1df741c6ebfff5cad518cfeb6a2cee71c0725e3f725c2bf85ef51d",
    "residuals_synthetic_knn_r.csv": "7120b1aeb218c5fbf2a4e992ac1859d227a0e5ef7bc86ea57000ec75b8d37d7b",
    "residuals_synthetic_lasso_r.csv": "7d41bda5303d94864663585a5bc4361fd4440b800f26b485b51c67ad2c45fb49",
    "residuals_synthetic_ols_r.csv": "d8428edcb92f304299d1e506e6a1dc681c544b87cc08c5473a20c133d2c054c9",
    "residuals_synthetic_rf_r.csv": "059bca3277bec0a16548f8bcf99cfe3d392617bbcf07a4a09e6a8136e807e9b9",
    "residuals_synthetic_ridge_r.csv": "efba77409dd1dfa9c3d3670529c2481792f2bd9ab58443c69c9f145c6bf301a2",
    "residuals_synthetic_svr_r.csv": "8a26b717897ad90b3cf04994e7860192eb40714436685cdb92b77ceec0abfebf",
    "roc_real_cart_c.csv": "ac64e8a5abbcd88b73522be3f6906d1d6a57f7e593e54f9e2307b87a727563dc",
    "roc_real_gbt_c.csv": "6a65d0bc19decc1a57a19d366c1f1fd070832f31cb994a62cad2d16a5d7071ef",
    "roc_real_knn_c.csv": "83f0a5c4ccdd9afbc7214fa8690f5b39fd7dca625dc32133f51c171ce4b1a0bb",
    "roc_real_logit_c.csv": "3c781bf0e524a1d0a205613dac0de8475327fe14749869e63e77e30d2f918c55",
    "roc_real_nb_c.csv": "ebb7d5b6aa219876a5f72e803f58d55726264e343fe1efead192e90b7ad77487",
    "roc_real_rf_c.csv": "f42b78709f0bcd9aae66492785780d666d40fc060620814b7c43fb278e6cfaf2",
    "roc_real_svm_c.csv": "37674a069fb4ff4674157a2bacf0c12646af548875e2057d1b40d6590e93dc29",
    "roc_synthetic_cart_c.csv": "107b3fb984c2ea9197a0cf3cc1af874ad40705c28d358e2946810ab9dd096997",
    "roc_synthetic_gbt_c.csv": "d10e39c22884d71d2249492100a1c30ab9f886a8d219bd8e5a0f4eb96a12a364",
    "roc_synthetic_knn_c.csv": "caecf023aae300fbc1c1f2bac7d089ff72792f529027f7133975345ebf124a0c",
    "roc_synthetic_logit_c.csv": "a534698967a6ea9bdc77e5dfadabb4182636210bb71e7a1f4d6850abf6237539",
    "roc_synthetic_nb_c.csv": "f4b4784166a9b642e1de21c5520985039b3cd9313226c94eae5e849712dc0ef6",
    "roc_synthetic_rf_c.csv": "c69a7be1b7f40d93b0cd44a43fbe81dc8c1dc4021ffdbb90126a693b28fdd11b",
    "roc_synthetic_svm_c.csv": "ba12b3688b7d8b122539b387d743584597104c04cb2fb043146c47c51aacdef5",
    "shap_synthetic_rf_c.csv": "a9a72328393c20e0f4ab327dfc2b1925f58ff6b79f3d82cd28245a433e40393b",
    "shap_synthetic_rf_c_0.csv": "9f4f65e53f2d2c1af7fba1b7a0dac37101c96eac322f157cce2f084bf897d050",
}


def test_saved_bundle_bytes_are_pinned(tmp_path):
    (tmp_path / "cfg.json").write_text(json.dumps(CONFIG))
    env = dict(os.environ)
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
    # each differing file with its new digest (None: no longer written), as a
    # DIGESTS entry, so a deliberate re-pin can be reviewed file by file
    assert not differ, "bundle files differ from the pinned bytes:\n" + "\n".join(
        f"    {name!r}: {got.get(name)!r}," for name in differ)
