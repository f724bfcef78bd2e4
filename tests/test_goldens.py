"""Golden outputs: SHA-256 digests of canonical results, bit for bit.

A change that keeps these digests keeps every number the library produces
on these inputs. A change that alters numerics on purpose re-records them
with ``PYTHONPATH=src python tests/test_goldens.py`` and says why in
CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from perfpred.baselines import PowerLawParams, ScalePoint, fit_power_law
from perfpred.gbtree import GBTConfig, fit_gbt, paper_grid
from perfpred.metabias import estimate_contrast, pet_peese, precision_weights
from perfpred.pipeline import SCALING_FEATURES, CVPlan, run_cv
from perfpred.registry import all_feature_names, encode_features
from perfpred.shapley import shap_matrix
from perfpred.synthdata import GenSpec, synth_dataset

# a small grid keeps the all-features runs inside the Tier-1 time budget;
# it still exercises grid search, staged prediction and the outer refit
GRID = [GBTConfig(2, 0.3, 10), GBTConfig(3, 0.1, 20)]
FEATURE_SETS = {
    "scale": list(SCALING_FEATURES),
    "four": ["total_params", "total_tokens_billions", "pct_code", "entropy_mean"],
    "all": all_feature_names(),
}
# recorded from the engine before the presorted split search and the
# row-batched TreeSHAP; both must reproduce these bytes
GOLDENS = {
    "cv/scale/0": "edb209bbd87d0c1eb088c7af8d7d8b385d13c69d001949658e843d4b9b6de97a",
    "cv/scale/1": "90581a201e1b7fec14e1d76323b32b8cf019e3871f0a1b968509b8ee4fbc5cc5",
    "cv/scale/2": "c5034685da97c9180af25168f786226449d1e8a65e6fd3f6416ad157ce505788",
    "cv/four/0": "d9fc64956649ab080b173745e2eed54975689d286840215031695831ab06674e",
    "cv/four/1": "1b5a371d85fcd2c4530349c6c10b2df4ff84f2722020f544136af3bda8f00404",
    "cv/four/2": "a47fc84488065d0382e345225bef1544207c473e9b12bc4f4140963568be4327",
    "cv/all/0": "d755b342ccdca0b2a213a254224509e03715ca09b39bf39247037b26a75d88f3",
    "cv/all/1": "d78c9480b335f6b82139e6cec9066f056c092b7f3927a3cef8f82d27c8d85e43",
    "cv/all/2": "a5010d7ffcbfceeb151aa192c68c4b6d433fea721dbb01ee63e1fc07fc4e89f4",
    # recorded from the least_squares(method="lm") fit, before the power-law
    # fit called MINPACK through leastsq with its own Jacobian
    "cv/power_law/0": "a0a9a17fcf88accb0cbdedd1ae10e686d112618617874e4faa256fda081eba0e",
    "cv/power_law/1": "2e8b0388fe27b196547aa025f423236769437bc745815ad0f0acd74d8472e721",
    "cv/power_law/2": "81b319a4cda07b0a9de1f69ff72648d4812ae4965ed3343554316663325f379a",
    "shap_matrix": "2fc1315278599ff915f0127d3f05fcc1cdd6064de068eb5f379f21f9f016f16b",
    "fit_power_law": "c6b4013028d58ea4a87b9eacffad0a27344c6c5929653f683a458a25a16fe2f7",
    "pet_peese": "b7dd066d7e4e98e4341519da623f2da9d78d5b8e74792841957fcebbd5f0f08b",
}

# the paper's 18-config grid on 15 models: its 9 prototypes share each
# n_trees prefix, and the chosen configs include both tree counts; recorded
# before the two-phase nested CV and the level pass
PAPER_GRID_GOLDENS = {
    "paper/scale/0": "72e453a4c9ec3c6046e7e115008c0d499d27c8f3be14254eb4f527bfdeccc117",
    "paper/scale/1": "c454cd50e7480b2e136987576dba3d6851fba0a779303f3563c110787b704bc8",
    "paper/four/0": "715300857c84aec354d111cfc0ac10d7a02954a9b2691e604cd436075663694a",
    "paper/four/1": "c7b37157f23203b6272cb908e4c37ca2bbbe7755e6fcc19af94524d3a9785a8e",
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _json_digest(obj) -> str:
    return _digest(json.dumps(obj, sort_keys=True).encode())


def _cv_dataset():
    spec = GenSpec(n_models=27, noise_sigma=0.02, missing_rate=0.25,
                   feature_effects={"pct_code": 0.002, "entropy_mean": 0.004})
    return synth_dataset(spec, seed=5)[0]


def paper_grid_digest(name: str, seed: int) -> str:
    spec = GenSpec(n_models=15, noise_sigma=0.02, missing_rate=0.25,
                   feature_effects={"pct_code": 0.002, "entropy_mean": 0.004})
    ds = synth_dataset(spec, seed=5)[0]
    return _json_digest(run_cv(ds, FEATURE_SETS[name], "gbt", CVPlan(seed=seed),
                               paper_grid()).to_dict())


def cv_digest(name: str, seed: int) -> str:
    if name == "power_law":
        result = run_cv(_cv_dataset(), [], "power_law", CVPlan(seed=seed))
    else:
        result = run_cv(_cv_dataset(), FEATURE_SETS[name], "gbt", CVPlan(seed=seed), GRID)
    return _json_digest(result.to_dict())


def shap_fit():
    spec = GenSpec(n_models=40, noise_sigma=0.02, missing_rate=0.3,
                   feature_effects={"pct_code": 0.002, "entropy_mean": 0.004})
    ds = synth_dataset(spec, seed=3)[0]
    X = encode_features(ds, all_feature_names())
    ens = fit_gbt(X.values, ds.values, GBTConfig(4, 0.3, 15), mask=X.missing_mask,
                  column_names=X.column_names)
    return X, ens


def shap_digest() -> str:
    X, ens = shap_fit()
    return _digest(shap_matrix(ens, X).values.tobytes())


def power_law_digest() -> str:
    truth = PowerLawParams(4.0e10, 2.0e11, 0.3, 0.25)
    spec = GenSpec(n_models=30, target="power_law", power_law_params=truth,
                   noise_sigma=0.005)
    ds = synth_dataset(spec, seed=11)[0]
    points = [ScalePoint(r.arch.total_params, r.data.total_tokens_billions * 1e9, float(v))
              for r, v in zip(ds.records, ds.values)]
    params, r2 = fit_power_law(points, ds.task.polarity)
    return _json_digest([params.Nc, params.Dc, params.alphaN, params.alphaD, r2])


def pet_peese_digest() -> str:
    effects = []
    for k in range(8):
        spec = GenSpec(n_models=30 + 5 * k, task_id=f"t{k}", noise_sigma=0.01 + 0.004 * k,
                       level_effects={"positional_embeddings=rope": 0.02})
        ds = synth_dataset(spec, seed=20 + k)[0]
        effects.append(estimate_contrast(ds, "positional_embeddings", "rope",
                                         precision_weights(ds)))
    return _json_digest(pet_peese(effects).to_dict())


def compute(key: str) -> str:
    kind, *rest = key.split("/")
    if kind == "cv":
        return cv_digest(rest[0], int(rest[1]))
    if kind == "paper":
        return paper_grid_digest(rest[0], int(rest[1]))
    return {"shap_matrix": shap_digest, "fit_power_law": power_law_digest,
            "pet_peese": pet_peese_digest}[kind]()


def test_shap_fit_root_sees_a_column_with_eight_missing_rows():
    # np.sum switches from sequential to blocked pairwise summation at 8
    # terms; the SHAP golden must cover a root split search past that point
    X, ens = shap_fit()
    assert X.missing_mask.sum(axis=0).max() >= 8
    assert any(X.missing_mask[:, t["split_feature"]].sum() >= 8
               for t in ens.to_dict()["trees"] if "leaf_value" not in t)


@pytest.mark.parametrize("key", sorted(GOLDENS))
def test_golden(key):
    assert compute(key) == GOLDENS[key]


@pytest.mark.parametrize("key", sorted(PAPER_GRID_GOLDENS))
def test_paper_grid_golden(key):
    assert compute(key) == PAPER_GRID_GOLDENS[key]


if __name__ == "__main__":
    for k in [*GOLDENS, *PAPER_GRID_GOLDENS]:
        print(f'    "{k}": "{compute(k)}",')
