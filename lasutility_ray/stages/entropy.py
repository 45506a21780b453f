"""Per-group Shannon entropy in integer millinats.

``user_entropy`` profiles each user's event-type distribution —
the behavioral-diversity feature (bot users replay one event type,
entropy ~0; organic users spread out). The classic float hazard of a
distributed entropy (sum of p·ln p terms depends on addition order)
is removed the way ``lm.py`` removed it for log-probabilities: each
term is floored to integer *millinats* first —

    term(c)  = floor(-1000 · (c/total) · ln(c/total))
    entropy  = Σ terms        (int64, order-independent)

so the result is bit-identical across partitionings and vs the
DuckDB mirror (the only float ops — one division, one ``ln``, two
multiplies, all on the same operands in the same order — are
IEEE-deterministic in both engines; the ``lm.py``/``collocations``
millibit precedent).

100 TB shape: map-side partial (user, type) counts collapse each
batch to its distinct-pair space before the ONE corpus-wide shuffle;
the entropy pass then shuffles only the (user, type, n) table —
bounded by users x event-type vocabulary, never the event count —
through ``cogroup.shuffle_by`` on the user, with one vectorized
segment scan per bucket.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def user_entropy(events_ds):
    """events -> one row per user: (user_id, n_events, n_types,
    entropy_millinats)."""
    from ray.data.aggregate import Sum

    from .cogroup import shuffle_by

    def partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "user_id": t.column("user_id")
                .to_numpy(zero_copy_only=False)
                .astype(np.int64),
                "event_type": t.column("event_type").to_pandas(),
            }
        )
        g = df.groupby(["user_id", "event_type"], sort=False).size()
        out = g.reset_index(name="n")
        return pa.table(
            {
                "user_id": pa.array(out["user_id"].to_numpy(np.int64)),
                "event_type": pa.array(out["event_type"], pa.string()),
                "n": pa.array(out["n"].to_numpy(np.int64)),
            }
        )

    counts = (
        events_ds.select_columns(["user_id", "event_type"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["user_id", "event_type"])
        .aggregate(Sum("n", alias_name="n"))
    )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame(
                {
                    "user_id": pd.Series([], dtype=np.int64),
                    "n_events": pd.Series([], dtype=np.int64),
                    "n_types": pd.Series([], dtype=np.int64),
                    "entropy_millinats": pd.Series([], dtype=np.int64),
                }
            )
        g = g.sort_values(["user_id"], kind="stable")
        uid = g["user_id"].to_numpy(np.int64)
        n = g["n"].to_numpy(np.int64)
        m = len(g)
        new = np.empty(m, dtype=bool)
        new[0] = True
        new[1:] = uid[1:] != uid[:-1]
        seg = np.cumsum(new) - 1
        # integer totals via add.at (float bincount would cap at 2^53)
        tot = np.zeros(seg[-1] + 1, dtype=np.int64)
        np.add.at(tot, seg, n)
        p = n.astype(np.float64) / tot[seg].astype(np.float64)
        term = np.floor(-1000.0 * p * np.log(p)).astype(np.int64)
        ent = np.zeros(len(tot), dtype=np.int64)
        np.add.at(ent, seg, term)
        ntypes = np.bincount(seg).astype(np.int64)
        return pd.DataFrame(
            {
                "user_id": uid[new],
                "n_events": tot,
                "n_types": ntypes,
                "entropy_millinats": ent,
            }
        )

    return shuffle_by(counts, "user_id", per_bucket)


def user_entropy_sql(source: str = "events") -> str:
    """DuckDB mirror of :func:`user_entropy` (same floor-per-term
    integer millinats; same operand order in the float expression)."""
    return (
        "WITH ue_c AS (SELECT user_id, event_type, "
        f"CAST(count(*) AS BIGINT) AS n FROM {source} GROUP BY 1, 2), "
        "ue_t AS (SELECT user_id, CAST(sum(n) AS BIGINT) AS tot, "
        "CAST(count(*) AS BIGINT) AS n_types FROM ue_c GROUP BY 1) "
        "SELECT c.user_id, t.tot AS n_events, t.n_types, "
        "CAST(sum(CAST(floor(-1000.0 * (CAST(c.n AS DOUBLE) / t.tot) * "
        "ln(CAST(c.n AS DOUBLE) / t.tot)) AS BIGINT)) AS BIGINT) "
        "AS entropy_millinats "
        "FROM ue_c c JOIN ue_t t ON c.user_id = t.user_id "
        "GROUP BY c.user_id, t.tot, t.n_types"
    )
