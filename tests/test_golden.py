"""Golden digests: the sha256 of a few small documents the command line writes for fixed seeds.

Synthetic rows, bootstrap rows and sampled Shapley orders come from numpy's
``Generator``, whose streams numpy does not promise across feature releases,
so byte-identical output holds within one numpy build.  The digests below
were recorded under ``RECORDED_NUMPY``.  A mismatch is either a change to the
output, in which case regenerating the digests is a deliberate change logged
in CHANGES.md, or another numpy's streams; the failure names both versions.
"""

import hashlib
import platform

import numpy as np
import pytest

from infogain.cli import main

RECORDED_NUMPY, RECORDED_PYTHON = "2.4.6", "3.11.7"

DIGESTS = {
    "deepfake/data.csv": "d9813b98fd65e98e2db921804174f127e1d822209eb2fc945ccd18856232bfb6",
    "deepfake/schema.json": "a953137f80b38e787318f89a5a65b31257bd8f38f4a6aa267e6d9de449efd3e3",
    "xor/data.csv": "9a16ddd62fcba5c41918f288625283f7836daf700d2b30e0ef05f0667aaae862",
    "xor/schema.json": "13073b045f4348b65f2a070daab88026848458e6ff7c0451fe10b135c644a51b",
    "bootstrap.json": "0206d4c61aa9bcfa84e1cdce5d5a65a76778c36382da4882c72d5588383646ba",
    "shapley.json": "6dbb7a12c42d6b52d2b1ca036a2218868ae03cf79f701420ee95b3f24c09e4ab",
    "report.svg": "ed375400b80c59cc19156c9d4ebdfbaf64641162a8937945d65bfd8bc43c87f3",
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    deepfake, xor = out / "deepfake", out / "xor"
    assert main(["synth", "--preset", "deepfake", "--rows", "4000", "--seed", "1", "--out-dir", str(deepfake)]) == 0
    assert main(["synth", "--preset", "xor", "--rows", "500", "--seed", "2", "--out-dir", str(xor)]) == 0
    assert main(["bootstrap", "--schema", str(deepfake / "schema.json"), "--data", str(deepfake / "data.csv"),
                 "--replicates", "20", "--out", str(out / "bootstrap.json")]) == 0
    assert main(["report", "--results", str(out / "bootstrap.json"), "--out", str(out / "report.svg")]) == 0
    assert main(["shapley", "--schema", str(xor / "schema.json"), "--data", str(xor / "data.csv"),
                 "--ground", "none", "--sampled", "20", "--seed", "3", "--out", str(out / "shapley.json")]) == 0
    return out


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_output_matches_its_golden_digest(outputs, name):
    digest = hashlib.sha256((outputs / name).read_bytes()).hexdigest()
    assert digest == DIGESTS[name], (
        f"{name}: sha256 {digest} is not the digest recorded under numpy {RECORDED_NUMPY} (Python {RECORDED_PYTHON}); "
        f"this run uses numpy {np.__version__} (Python {platform.python_version()})"
    )
