"""Pinned report bytes: one small config per experiment kind, plus configs
whose ``n_list`` is out of order or empty.

A report lists its dimensions in config order, except for
``berry_esseen_sweep`` and ``equivalence_decay``, which sort them because
their cross-n rows compare each n with the next smaller one.  The unsorted
configs pin that order; the oracle-only ``mdp`` config pins a report with
exact rows and no draw.

Each digest is the SHA-256 of ``to_csv() + to_json()`` of the report, so any
change to a sample, a row's arithmetic, the row order or the number format
shows up here.  A change that means to move a report re-pins its digest and
says why.
"""

import hashlib

import pytest

from simplex_limits import experiments as ex

C = ex.ExperimentConfig

CONFIGS = {
    "clt": C(kind="clt", n_list=(50,), q=2.0, replicates=2000, seed=1),
    "berry_esseen_sweep": C(kind="berry_esseen_sweep", n_list=(20, 40, 80), q=3.0,
                            replicates=1000, seed=2),
    "gumbel": C(kind="gumbel", n_list=(50,), replicates=2000, seed=3,
                oracle_n_list=(1000,)),
    "ldp": C(kind="ldp", n_list=(100,), replicates=5000, seed=4, thresholds=(1.5, 0.5),
             oracle_n_list=(1000, 10_000)),
    "mdp": C(kind="mdp", n_list=(1000,), replicates=2000, seed=5, thresholds=(1.0, -1.0),
             s_n_rule="log_log", oracle_n_list=(10_000,)),
    "lp_ldp": C(kind="lp_ldp", n_list=(50,), p=1.5, replicates=2000, seed=6,
                thresholds=(1.3, 0.8)),
    "lp_gumbel": C(kind="lp_gumbel", n_list=(100,), p=1.0, replicates=2000, seed=7),
    "equivalence_decay": C(kind="equivalence_decay", n_list=(5, 10), replicates=5000,
                           seed=8),
    "general_clt": C(kind="general_clt", n_list=(100,), q=1.5, replicates=2000, seed=9,
                     source="uniform01"),
    "clt_n_in_config_order": C(kind="clt", n_list=(80, 40), q=3.0, replicates=1000, seed=21),
    "berry_esseen_sweep_n_sorted": C(kind="berry_esseen_sweep", n_list=(80, 20, 40), q=1.5,
                                     replicates=1000, seed=22),
    # n = 100 reaches the final-frequency rule
    "equivalence_decay_n_sorted": C(kind="equivalence_decay", n_list=(100, 5, 20),
                                    replicates=20_000, seed=23),
    "mdp_oracle_only": C(kind="mdp", n_list=(), replicates=1, seed=24,
                         thresholds=(1.0, -1.0), oracle_n_list=(10**6,)),
    "gumbel_n_in_config_order": C(kind="gumbel", n_list=(200, 50), replicates=1000, seed=25),
    "lp_ldp_n_in_config_order": C(kind="lp_ldp", n_list=(100, 50), p=2.0, replicates=1000,
                                  seed=26, thresholds=(1.3,)),
    "general_clt_n_in_config_order": C(kind="general_clt", n_list=(60, 30), q=3.0,
                                       replicates=1000, seed=27),
}

PINNED_DIGESTS = {
    "clt":
        "08443f0d53738f76916ba3ce752afe11a497c5142e8919ba18f980bce3b69095",
    "berry_esseen_sweep":
        "4cb02031339d5445ca12bdb4b25cf05d0e36fec9b254e135956713a1d427e6ec",
    "gumbel":
        "8a396849557123c9cf323fe19085e4775cce4f0bf82393f79bd312b5b8575fec",
    "ldp":
        "adaa84abc1173510d0f92edc225ff5ae8ac26170c18e6de9036758533e1d021c",
    "mdp":
        "7b9fe18db84c5336fa0d2bbb53e5d84577ca923d84297a3bb4d1846ab5041fb1",
    "lp_ldp":
        "b8eac4c25396584d5fdac89b9e76cf3037f612f63ab04098c9b966cff70981fa",
    "lp_gumbel":
        "bbed97536a72ff28f058c82271ef3cfd9cfb2f78cab8d0d083c412edcbc6414a",
    "equivalence_decay":
        "d9509c4bb87fb23663e1508bdd39cc6b3bc04258295b33c7a5117830451e0208",
    "general_clt":
        "6445bbd9ed25018d56fbec5fb359cfbc63471111bbafaa455b6675c2012a47f4",
    "clt_n_in_config_order":
        "b672285a2552c171be29aeff16a2ee1e5b8dfed5fb3c32fe44b9015a6ac89881",
    "berry_esseen_sweep_n_sorted":
        "589d03b98887f65bf3bb50d0b1da4c682a59388ef721e760928e09fde762330e",
    "equivalence_decay_n_sorted":
        "81d5bd439643a89e51b8197fabeae54ca6552c46613bc77f7ab61e3b068ccc9c",
    "mdp_oracle_only":
        "0b8c4c263d83f2a4e196f7c4bcde373bea9af792ba0e17d3f7abbab58074494c",
    "gumbel_n_in_config_order":
        "6332d35374564f4c6e77892d860a944d2292296257796c33dfa80603a5f6851d",
    "lp_ldp_n_in_config_order":
        "13df1dc2ac1a6ae8c3b6e18c4d48dab5928225b2314e3929d38f030fc2bc86d8",
    "general_clt_n_in_config_order":
        "7eca94f55fced4cbdb51ecc910491a4a2f22b8bc38f99b738da67ebcd3f317e1",
}


def test_every_kind_is_pinned():
    assert {c.kind for c in CONFIGS.values()} == set(ex.EXPERIMENT_KINDS)
    assert set(CONFIGS) == set(PINNED_DIGESTS)


@pytest.mark.parametrize("kind", sorted(CONFIGS))
def test_report_bytes_match_pinned_digest(kind):
    report = ex.run(CONFIGS[kind])
    text = report.to_csv() + report.to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_DIGESTS[kind]
