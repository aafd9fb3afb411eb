"""Bit-level pins of the fingerprint stage: corpus, features and trained models.

`report.json` shows only confusion counts, so a change in the last bits of the
corpus, of a feature or of a trained weight passes the report digests unseen.
These SHA-256 digests were recorded on the per-trace synthesis and feature
code, before synthesis, features and training became passes over blocks of
traces, so any rewrite of those passes must reproduce them exactly.
"""

import hashlib

import numpy as np
import pytest

from hybridflow.fingerprint import extract_features, generate_corpus, train

COUNT = 150    # several blocks of traces, and not a multiple of one
EPOCHS = 200
LAM = 1e-3

# (seed, noise_sigma_db) -> digests of the corpus, the feature rows and each model
DIGESTS = {
    (3, 0.0): {
        "corpus": "c97d0341c4160b6ef80d93d51883e5e49144d6091b9df83a47d57f0e31eec532",
        "features": "a37a85edf6ac236860fd50d9c6fd0985c789ba9fccaed044f86fe0d941580ed6",
        "l1": "0f321ddc194275e0b5df65801022659fea8db0453c37de0f6af65f41d250db0f",
        "l2": "13aa3b1a87ec4a9d448064bd2416f64a5942987f1f98b3386327e342d913aa62",
    },
    (3, 2.0): {
        "corpus": "8163bf88fc4bc6452f8ae3510af929511ba6094ee97f551767e19d45de2ea7ca",
        "features": "78f3c7c26edf060bb9131dd965c2b78b198781258ef0b50858bbb53ce95de8f7",
        "l1": "a5c1773e89177c8d686a9b685f3fa55b5cda06da71896bf8240a802b5defe22a",
        "l2": "9288024e278b83d2ab3e8dbf97fc77a9611ff690f7ea4a493b13672918325692",
    },
    (8, 0.0): {
        "corpus": "7c8f0280035c34d45113d0bdadb9e8f1386637e582560493f01320fea7e8302f",
        "features": "e903cfbbcbb94a59463c45b995a2d084428f68c9e75a45dac4ad80092635cd13",
        "l1": "6de8d29158d85673624a9d431db8e127d9da27c4eadcb83c8fe23e4463552d14",
        "l2": "bc392768c65b912f476a3adbbb935620d054346b5616dd83807dbed5c2a16527",
    },
    (8, 2.0): {
        "corpus": "3458897984789d3ec689a7bb91fc2b158c5498230a79b2a664fbab9e773afd57",
        "features": "00214c05551aebcf9995bd2fe44a72a142d74fb9612bf77dccbb7225f64c58f1",
        "l1": "25e9496428c4cdf7acec2c5b62d795d56275b5838088e7344fa6269ff0835614",
        "l2": "bdedca5fb65295d1d701c18177a94b8f6873e0af624f868d74287e0c378c203e",
    },
}


def _sha(arrays, header=""):
    h = hashlib.sha256(header.encode())
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def digests(seed, noise_sigma_db):
    corpus = generate_corpus(COUNT, noise_sigma_db, 0.5, seed)
    meta = repr([(t.label, t.speed_mps, t.dip_width_s, t.seed, t.sample_rate_hz)
                 for t in corpus])
    out = {"corpus": _sha((t.rssi_dbm for t in corpus), meta)}
    records = extract_features(corpus)
    out["features"] = _sha((r.values for r in records), repr([r.label for r in records]))
    for reg in ("l1", "l2"):
        model = train(records, reg=reg, lam=LAM, epochs=EPOCHS)
        out[reg] = _sha((model.weights, [model.bias], model.objective_curve,
                         model.feature_mean, model.feature_scale))
    return out


@pytest.mark.parametrize("seed, noise_sigma_db", sorted(DIGESTS))
def test_fingerprint_bits_pinned(seed, noise_sigma_db):
    assert digests(seed, noise_sigma_db) == DIGESTS[seed, noise_sigma_db]
