"""Pinned workload definitions for the benchmark.

The experiment configs are copied from the battery in
``scripts/run_all_experiments.py`` (row numbers are that battery's indices)
rather than imported, so an edit to the battery cannot silently move a
workload.  Replicate counts are the battery's divided by ``REPLICATE_DIVISOR``
so that several passes fit in one measured run; every row length ``n`` and
therefore every block shape is the battery's own.
"""

from __future__ import annotations

#: The battery's own default seed; the pinned digests below are taken at it.
DEFAULT_SEED = 20240

#: Seed kept out of all tuning, for confirming a claimed gain (a claim must
#: also hold on a seed that was not used while the change was written).
HELD_OUT_SEED = 77_003

#: Battery replicate counts are divided by this.
REPLICATE_DIVISOR = 8

#: Elements per replicate block in the program at the time the benchmark was
#: written (``experiments._BLOCK_ELEMS``); used only to report computed block
#: bytes against the cache sizes.
BLOCK_ELEMS = 1 << 21

#: ``huge_n``: one block holds a single row of this many doubles (64 MiB).
HUGE_N = 1 << 23
HUGE_N_REPLICATES = 32


#: Workload name -> worker threads.  Why each workload exists is recorded in
#: ``BENCHMARK.json``; in short: ``simplex_long_rows`` exercises the
#: exponential sampler and the long-row kernels and bypasses the lp-ball
#: sampler, ``lp_ball`` the reverse; ``tails_single_worker`` runs short rows,
#: large samples and the source samplers on one thread; ``huge_n`` is the
#: one-row-per-block regime where peak memory moves.
WORKLOADS = {
    "simplex_long_rows": 2,
    "lp_ball": 2,
    "tails_single_worker": 1,
    "huge_n": 2,
}


def _r(battery_replicates: int) -> int:
    return battery_replicates // REPLICATE_DIVISOR


def configs(ex, workload: str, seed: int, workers: int) -> list[tuple[str, object]]:
    """``(row label, ExperimentConfig)`` pairs of a workload run through
    ``experiments.run``; empty for ``huge_n``, which calls ``clt_sample``."""
    C = ex.ExperimentConfig
    rows = {
        "simplex_long_rows": [
            ("00_clt", C(kind="clt", n_list=(10_000,), q=2.0, replicates=_r(100_000),
                         seed=seed, workers=workers)),
            ("03_gumbel", C(kind="gumbel", n_list=(100, 10_000), replicates=_r(100_000),
                            seed=seed + 3, oracle_n_list=(1_000_000,), workers=workers)),
            ("05_mdp", C(kind="mdp", n_list=(10_000,), replicates=_r(100_000),
                         seed=seed + 5, thresholds=(1.0,), workers=workers)),
            ("06_mdp", C(kind="mdp", n_list=(), replicates=1, seed=seed + 5,
                         thresholds=(1.0, -1.0), oracle_n_list=(1_000_000,),
                         workers=workers)),
        ],
        "lp_ball": [
            ("07_lp_ldp", C(kind="lp_ldp", n_list=(1000,), p=2.0, replicates=_r(100_000),
                            seed=seed + 6, thresholds=(1.3,), workers=workers)),
            ("08_lp_gumbel", C(kind="lp_gumbel", n_list=(10_000,), p=1.0,
                               replicates=_r(100_000), seed=seed + 7, workers=workers)),
        ],
        "tails_single_worker": [
            ("04_ldp", C(kind="ldp", n_list=(1000,), replicates=_r(1_000_000),
                         seed=seed + 4, thresholds=(1.5, 0.5),
                         oracle_n_list=(10_000, 100_000, 1_000_000), workers=workers)),
            ("09_equivalence_decay", C(kind="equivalence_decay",
                                       n_list=(5, 10, 20, 50, 100),
                                       replicates=_r(1_000_000), seed=seed + 8,
                                       workers=workers)),
            ("10_general_clt", C(kind="general_clt", n_list=(10_000,), q=2.0,
                                 replicates=_r(10_000), seed=seed + 9,
                                 source="exponential", workers=workers)),
            ("11_general_clt", C(kind="general_clt", n_list=(10_000,), q=1.0,
                                 replicates=_r(10_000), seed=seed + 10,
                                 source="uniform01", workers=workers)),
        ],
        "huge_n": [],
    }
    return rows[workload]


def variates(workload: str, cfgs) -> int:
    """Random variates one pass draws: sum of replicates x n over its configs."""
    if workload == "huge_n":
        return HUGE_N_REPLICATES * HUGE_N
    return sum(c.replicates * n for _, c in cfgs for n in c.n_list)


def block_bytes(workload: str, cfgs) -> int:
    """Computed bytes of the largest float64 replicate block of a workload."""
    if workload == "huge_n":
        shapes = [(HUGE_N_REPLICATES, HUGE_N)]
    else:
        shapes = [(c.replicates, n) for _, c in cfgs for n in c.n_list]
    return max(min(r, max(1, BLOCK_ELEMS // n)) * n * 8 for r, n in shapes)


#: SHA-256 of the JSON list of each report's row keys (experiment, n, param,
#: threshold).  They depend on the config only, not on the seed, so they are
#: checked at every seed.
ROW_KEYS = {
    "00_clt":
        "d69cafb04e3511b5ffc901d4c8876e88afd8b0ba901298219d256af1264124d7",
    "03_gumbel":
        "7163507f3ff1c703ffd241747a1023c52f13867358d90c2076592d2c42659072",
    "05_mdp":
        "00d78de4098779c3b5f95626a5749a62521e546654503cfb68fb3284c669f809",
    "06_mdp":
        "477b49c910e077a7ac4b9c99fbb5aa3bda6a3f1b999937d78c3a1c6bbf1d7272",
    "07_lp_ldp":
        "682a20956ba54e979b2e9bf81b3e4068f9c1638bfb199add7f97d669572959b3",
    "08_lp_gumbel":
        "708ba3a0f1bfa68d3f4a215713cccdefd9b48305fceb344a25d5da6aca2845d0",
    "04_ldp":
        "5b75e92746bd0e9ce8709b29a03cd258be3bcd9b8d7bc35089a0c934d926eeff",
    "09_equivalence_decay":
        "5dbc8288d771b30085cabb82dec38b1f86071ffc154102a9e27cf89919ca1118",
    "10_general_clt":
        "19054408c42c8a764fc7bfc2315dcc2df8274dd5ac2cf9be43ca3e9981ab5e0c",
    "11_general_clt":
        "ac90ce13ea3a799ddee437ead0a72e27045dce7974209700f308c2594cfc4059",
}

#: SHA-256 of ``to_csv() + to_json()`` of each report at ``DEFAULT_SEED`` (for
#: ``huge_n``, of the sorted sample's ``values.tobytes()``).  A change that
#: alters the sample re-pins these in its own labelled benchmark change.
PINNED_DIGESTS = {
    "00_clt":
        "659736c221d7887077ee677e53fbf681f41cc258c6228ef1ef41d3b160093ec1",
    "03_gumbel":
        "b16411d6d94390f6f4b5dbef5fc19d8ae3dde9d282b4cd9564506576f68f2a68",
    "05_mdp":
        "25850b71fae758e5f67af4d6320976f8098e21720b8c94f4e53c75dc269cf994",
    "06_mdp":
        "ea3c53f0024eeb15d8fa2d1cee6bd02d3d913a365be507a0e1fc19c60874c44d",
    "07_lp_ldp":
        "a8688cdea221a246c88edcc1300cba369deecad3656996512b30d18e7b5561e8",
    "08_lp_gumbel":
        "020099e398439b158e30177008ee4f6eaf4b0151dd038ef31e4aa160ce0654ac",
    "04_ldp":
        "84d24c7416ff5b85092d107b69b2f91c2f9f87a87e61e6bfa3c3997cf2ba8c68",
    "09_equivalence_decay":
        "6dbd59ccce0f5c508025d53580d2aae3f001de1f9a7eda75821344a30b52947f",
    "10_general_clt":
        "0edd3b0da7174a03bfdd6b33e13e56956274ccc078d98a73aafe8528c8824699",
    "11_general_clt":
        "f30eae97c6ab36b644a8ecf10543838ead96b55dd2fb95ac859ca55b5d3789fc",
    "huge_n":
        "f93facf0168611aa76b6f5bb96a517e8aa225342087c2f53a5667a5b0ac02e80",
}
