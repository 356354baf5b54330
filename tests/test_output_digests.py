"""Golden byte digests of seeded CLI runs and library results.

Every CLI output file and every seeded library result is meant to stay
byte-identical across refactors; a change to them must be deliberate and
called out. Each CLI entry pins the SHA-256 of the exit code plus the output
file (stderr is left out: warnings and error texts embed file paths and
wording). Each library entry pins the SHA-256 of the dtype, shape and bytes of
the arrays a call returns.

The digests assume IEEE doubles and numpy's own transcendental functions; a
platform whose log, sqrt or pow round differently will differ. To print the
table for the current code, run

    PYTHONPATH=src python tests/test_output_digests.py
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import mrwlab.limit_harness as lh
from mrwlab import (
    ModelParams,
    RngStreamSpec,
    asclt_measure_critical,
    asclt_measure_diffusive,
    covariance_grid,
    fclt_skeletons_batch,
    qsl_functional,
    qsl_functional_batch,
    sequence_asymptotics,
    superdiffusive_limit,
)
from mrwlab.cli import main

DIFF = ModelParams(s=0.5, q=0.3, p=0.6)
CRIT = ModelParams(s=0.5, q=0.2, p=0.7)  # decimal alpha = 1/2, float p - q below it
P_ONE = ModelParams(s=0.5, q=0.6, p=1.0)
SUPER = ModelParams(s=0.3, q=0.1, p=0.9)

_CRIT = ["--q", "0.2", "--p", "0.7"]
_CRIT_EXACT = ["--q", "0.25", "--p", "0.75"]
_P_ONE = ["--q", "0.6", "--p", "1.0"]
_SUPER = ["--q", "0.1", "--p", "0.9"]
_JSON = ["--out", "json"]
_T1 = ["--threads", "1"]
_T2 = ["--threads", "2"]

CLI_RUNS = {
    "simulate": ["simulate", "--n", "200", "--replicas", "20", *_T1],
    "simulate-critical-json": ["simulate", "--n", "200", "--replicas", "20", *_CRIT, *_JSON, *_T2],
    "simulate-trajectory": ["simulate", "--n", "50", "--trajectory", "--mechanism", "lookup"],
    "simulate-trajectory-direct": ["simulate", "--n", "50", "--trajectory"],
    "simulate-alpha-minus-one": ["simulate", "--n", "100", "--replicas", "3", "--q", "1", "--p", "0"],
    "exact-critical": ["exact", "--n", "30", *_CRIT_EXACT],
    "exact-p-one-json": ["exact", "--n", "30", *_P_ONE, *_JSON],
    "asclt": ["asclt", "--n", "500", *_T1],
    "asclt-critical-json": ["asclt", "--n", "500", *_CRIT, *_JSON, *_T2],
    "asclt-p-one": ["asclt", "--n", "300", *_P_ONE],
    "asclt-superdiffusive": ["asclt", "--n", "500", *_SUPER],
    "asclt-short": ["asclt", "--n", "5"],
    "qsl": ["qsl", "--n", "300", "--r-order", "2", "--replicas", "3"],
    "qsl-critical-json": ["qsl", "--n", "300", "--replicas", "4", *_CRIT_EXACT, *_JSON, *_T2],
    "qsl-p-one": ["qsl", "--n", "300", "--r-order", "3", "--replicas", "2", *_P_ONE],
    "qsl-superdiffusive": ["qsl", "--n", "300", *_SUPER],
    "fclt": ["fclt", "--n", "200", "--replicas", "5"],
    "fclt-critical-json": ["fclt", "--n", "200", "--replicas", "5", *_CRIT, *_JSON, *_T2],
    "fclt-covariance": ["fclt", "--n", "200", "--replicas", "1000", "--grid", "0.5,1", *_T2],
    "fclt-covariance-critical-json": ["fclt", "--n", "400", "--replicas", "1000", *_CRIT_EXACT, *_JSON],
    "fclt-covariance-p-one": ["fclt", "--n", "500", "--replicas", "1000", *_P_ONE],
    "fclt-superdiffusive": ["fclt", "--n", "200", "--replicas", "5", *_SUPER],
    "urn-compare": ["urn-compare", "--n", "25"],
    "urn-compare-critical-json": ["urn-compare", "--n", "25", *_CRIT, *_JSON],
    "superdiffusive": ["superdiffusive", "--n", "100,1000", "--replicas", "200", *_SUPER, *_T1],
    "superdiffusive-s-json": ["superdiffusive", "--n", "100,1000", "--replicas", "200", *_SUPER, "--s", "0.3", *_JSON, *_T2],
    "superdiffusive-diffusive": ["superdiffusive", "--n", "100", "--replicas", "10"],
    "sequences-critical": ["sequences", "--n", "100000", "--points", "10", *_CRIT_EXACT],
    "sequences-negative-alpha-json": ["sequences", "--n", "10000", "--points", "8", "--q", "0.65", "--p", "0.35", *_JSON],
    "sequences-alpha-zero": ["sequences", "--n", "1000", "--points", "5"],
    "sequences-superdiffusive": ["sequences", "--n", "1000", "--points", "5", *_SUPER],
}


def _specs(seed, count):
    return [RngStreamSpec(seed, i) for i in range(count)]


def _sample(s):
    return s.points, s.weights, s.normalizer, s.target_variance


def _asclt_histogram():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lh, "RAW_POINT_LIMIT", 500)
        return _sample(asclt_measure_diffusive(DIFF, 3000, RngStreamSpec(5, 4)))


def _covariance(params, n):
    est = covariance_grid(params, n, None, 1000, RngStreamSpec(6))
    return est.grid, est.empirical, est.theoretical, est.standard_errors


def _asymptotics(params):
    d = sequence_asymptotics(params, 10**5)
    return (d.grid, d.a, d.A, d.v, d.f, d.mean_ratio_dev, *d.columns.values(), *d.targets.values())


LIBRARY_CASES = {
    "asclt-diffusive": lambda: _sample(asclt_measure_diffusive(DIFF, 3000, RngStreamSpec(5, 2))),
    "asclt-critical": lambda: _sample(asclt_measure_critical(CRIT, 3000, RngStreamSpec(5, 3))),
    "asclt-histogram": _asclt_histogram,
    "qsl-batch": lambda: tuple(
        qsl_functional_batch(params, 3000, r, _specs(7, 4))
        for params in (DIFF, CRIT, P_ONE)
        for r in (1, 2, 3)
    ),
    "qsl-single": lambda: (lambda res: (res.value, res.target))(qsl_functional(CRIT, 2000, 2, RngStreamSpec(7, 9))),
    "skeletons": lambda: tuple(
        fclt_skeletons_batch(params, 1000, None, _specs(8, 5)).values for params in (DIFF, CRIT, P_ONE)
    ),
    "covariance-diffusive": lambda: _covariance(DIFF, 300),
    "covariance-critical": lambda: _covariance(CRIT, 300),
    "superdiffusive-limit": lambda: tuple(
        (e.mean, e.mean_se, e.variance, e.variance_se, e.cauchy_rms, e.samples)
        for e in superdiffusive_limit(SUPER, [50, 400], 100, RngStreamSpec(9))
    ),
    "sequence-asymptotics": lambda: tuple(
        x for params in (DIFF, CRIT, ModelParams(0.5, 0.65, 0.35), SUPER) for x in _asymptotics(params)
    ),
}


def _hash_arrays(values, h):
    for v in values:
        if isinstance(v, tuple):
            _hash_arrays(v, h)
            continue
        a = np.ascontiguousarray(v)
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(a.tobytes())


def cli_digest(argv, workdir: Path) -> str:
    out = workdir / "out"
    out.unlink(missing_ok=True)
    with contextlib.redirect_stderr(io.StringIO()):
        rc = main([*argv, "--out-path", str(out)])
    h = hashlib.sha256(f"rc={rc}\n".encode())
    if out.exists():
        h.update(out.read_bytes())
    return h.hexdigest()


def library_digest(name: str) -> str:
    h = hashlib.sha256()
    _hash_arrays(LIBRARY_CASES[name](), h)
    return h.hexdigest()


DIGESTS = {
    "cli:simulate": "fdd352f2af18a028a658a0df15af47b8dfac8331bd80322ecb5f091fc2a4f8b8",
    "cli:simulate-critical-json": "477e42f55dfb0d6e9dcd375836023a81aac6c7f2e88716b7598720b9f0210fb5",
    "cli:simulate-trajectory": "6183d96c361f543c46d66c4b5ab93737e053448d9d6bc4b40ad9180cc640f331",
    "cli:simulate-trajectory-direct": "e57ba8b38147be96d4569af17cb2372550147c4ec56c3bc78f50b815c1fcc096",
    "cli:simulate-alpha-minus-one": "568da456ef90273457c41ff3e8c1d4b1f9fe3ae179a7213d60e730154b968d2b",
    "cli:exact-critical": "3c36754931c9bd5c82a0aeef086a9994db19d1e7d40968392a5679675e9a5247",
    "cli:exact-p-one-json": "c16673570785bb8dc7b8a3e8e9eacfc782d647c7049c4f8e57d1ae688a9b351d",
    "cli:asclt": "d1053410da1e23e5adeba0087109c39307e290839309459d41830609957f4ffb",
    "cli:asclt-critical-json": "cd2a2e636fecdcc60a53fdf8707e602f5cfcbb04d504cc028dfe05a3b228ea28",
    "cli:asclt-p-one": "aa57ef8241cb110a18a88ee8783acec4de871327ec0f4ffe6ed26bc6189b05ba",
    "cli:asclt-superdiffusive": "6287af74aad3b917a89c5439f344047420fcf7e089e04e310d3c41259b0c9332",
    "cli:asclt-short": "9830ce9d409097e8147e1ce53d55c9b0539a7344c241bd2caad75ca441f08355",
    "cli:qsl": "49adde5df017f1427a40f20f6a2c7df29b5be05b2c91014a4149d156772f98b7",
    "cli:qsl-critical-json": "060521a49853851c736cb5212c3d164527486a88fa2e5cb19bdd9ab3bf58bcbc",
    "cli:qsl-p-one": "6865050103261d204ffa6975f8ef867560aa348f9d503c00da4977958f267a9b",
    "cli:qsl-superdiffusive": "6287af74aad3b917a89c5439f344047420fcf7e089e04e310d3c41259b0c9332",
    "cli:fclt": "4aa81fb3c96d95f79a606aa1bb64f4971d684cccc674b79ce6e6476abf514f18",
    "cli:fclt-critical-json": "ad939d84ea425a069c4328b259ba381c3463202a05de5e32f15d80aae84243ca",
    "cli:fclt-covariance": "93ba35a323b546f363b14bd263572eae3cfc61c3407429377a48a4a3ad957d72",
    "cli:fclt-covariance-critical-json": "dbd2210abfb3eb22616bea5abbe7760fd70f6c45741a5a6dff0c7b313054b073",
    "cli:fclt-covariance-p-one": "88dec6f5a55c050aee4164735d64b94d91c37859576b150a2b245d17e8539e31",
    "cli:fclt-superdiffusive": "6287af74aad3b917a89c5439f344047420fcf7e089e04e310d3c41259b0c9332",
    "cli:urn-compare": "413ef32e22deb2e1db51513f9dd8baa93211d02155c3342b919dad8692eaaa9b",
    "cli:urn-compare-critical-json": "05ee98b698c51b4ae0bda272567c25a45d3bd2dadc5464df8ea2ddbf5b7427f4",
    "cli:superdiffusive": "e21a4c4b6f11d501b9510381b737a4082af1584de46a1119d0b6092fbac49a9a",
    "cli:superdiffusive-s-json": "fa09b577b83495365bb5659f8f6bfb4a355eee752bb5b2921673d2fcd4c746f7",
    "cli:superdiffusive-diffusive": "6287af74aad3b917a89c5439f344047420fcf7e089e04e310d3c41259b0c9332",
    "cli:sequences-critical": "65a2d0803d18f97cc50505b2e87e5081baea7d34afb7d13f4c4a9a3a2204c40a",
    "cli:sequences-negative-alpha-json": "deddb8b6eb8162c73764e65be4135c9faeba663363387e7cf3a8a52983b61a10",
    "cli:sequences-alpha-zero": "06169887fbd8bf805f3ca7128c4d1a615f162e1ae1c47b4d9a13ca92ec265893",
    "cli:sequences-superdiffusive": "8d4ac65cfb85a20fda035517b9b2c15a96119702feb2ea8baa4c4643670bfc2e",
    "lib:asclt-diffusive": "40aed03cb776b6ad06264b442c2a9e8a1f634d817750a5c95c8f634ec4161317",
    "lib:asclt-critical": "3ab911f1471a5c1a98ec23d96968bc9baa24f494415b71dab88bd0e08ff17eb9",
    "lib:asclt-histogram": "3f43cfff543205704d4b8cb41970fc19d4c84126b0618101aa3c8f2c2a442e5f",
    "lib:qsl-batch": "744a15354472f0f4befd3422acc59d07c45c9ba62485a61aab62c44610b86ff6",
    "lib:qsl-single": "f24a25b9f3339f3bae3b33eb53cb2fae465f24e155d3b5925b583ec2f2f4e14b",
    "lib:skeletons": "7eac5b7c4f109491440df976a57f2f4b58112ad5bf3290b0055a3a072c9d934c",
    "lib:covariance-diffusive": "f67e3a391e70a7994eb59bdf159f974b2682d95c7a985663ac46e3d3cac03634",
    "lib:covariance-critical": "a74357f09499f24eef630c3449d2afce87af47ebda347b4d1250ecce95ea4158",
    "lib:superdiffusive-limit": "00ae55d46b37a2f9dd9e2206454a4f3d8ec1b26355422814f85d139e0894d7fc",
    "lib:sequence-asymptotics": "eebcb0d92c6d20fc297690d45f139e5612910de512ca319fd49ef51b4b870f20",
}


@pytest.mark.parametrize("name", list(CLI_RUNS))
def test_cli_output_digest(tmp_path, name):
    assert cli_digest(CLI_RUNS[name], tmp_path) == DIGESTS[f"cli:{name}"]


@pytest.mark.parametrize("name", list(LIBRARY_CASES))
def test_library_result_digest(name):
    assert library_digest(name) == DIGESTS[f"lib:{name}"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = {f"cli:{k}": cli_digest(v, Path(tmp)) for k, v in CLI_RUNS.items()}
    table.update({f"lib:{k}": library_digest(k) for k in LIBRARY_CASES})
    sys.stdout.write("DIGESTS = {\n" + "".join(f'    "{k}": "{v}",\n' for k, v in table.items()) + "}\n")
