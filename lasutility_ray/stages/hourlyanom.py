"""Seasonal-profile anomaly detection on the event stream: hourly
event counts compared against their HOUR-OF-DAY profile (hour 14
behaves like other hour-14s, not like 3 AM) — the ops-dashboard
"traffic is weird for this time of day" alarm.

Exactness: the z-score test |c - mean| > k*std is evaluated ENTIRELY
in integers by cross-multiplication — with S = sum of the hour-of-day
group's counts, Q = sum of squares, n = group size, the condition is
``(n*c - S)^2 > k^2 * (n*Q - S^2)`` (both sides int64-safe at these
magnitudes), so no float mean/std ever forms and the SQL mirror is
bit-trivial.

Shape: hourly counts = one single-key groupby (hours bounded by the
corpus time span); the 24-row hour-of-day profile reduces from it with
map-side partials and broadcasts back as plain python ints — nothing
here is corpus-proportional except the first count scan."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

US_PER_HOUR = 3_600_000_000
K_SIGMA = 2  # flag |c - mean| > 2 std


def hourly_anomalies(events_ds, k: int = K_SIGMA):
    """events -> (hr, hod, n_events, is_anomaly) per corpus hour."""
    from ray.data.aggregate import Count

    def slim(t: pa.Table) -> pa.Table:
        hr = (
            t.column("ts")
            .to_numpy(zero_copy_only=False)
            .astype("datetime64[us]")
            .astype(np.int64)
            // US_PER_HOUR
        )
        return pa.table({"hr": pa.array(hr, pa.int64())})

    counts = (
        events_ds.map_batches(slim, batch_format="pyarrow")
        .groupby("hr")
        .aggregate(Count(alias_name="n_events"))
        .materialize()
    )

    # 24-row hour-of-day profile: S, Q, n per hod (driver-side tiny)
    prof = counts.to_pandas()
    prof["hod"] = prof["hr"] % 24
    g = prof.groupby("hod")["n_events"]
    S = g.sum().to_dict()
    Q = (prof["n_events"] ** 2).groupby(prof["hod"]).sum().to_dict()
    N = g.size().to_dict()

    def flag(t: pa.Table) -> pa.Table:
        hr = t.column("hr").to_numpy()
        c = t.column("n_events").to_numpy().astype(np.int64)
        hod = hr % 24
        s = np.array([S[h] for h in hod.tolist()], np.int64)
        q = np.array([Q[h] for h in hod.tolist()], np.int64)
        n = np.array([N[h] for h in hod.tolist()], np.int64)
        lhs = (n * c - s) ** 2
        rhs = k * k * (n * q - s * s)
        return pa.table(
            {
                "hr": pa.array(hr, pa.int64()),
                "hod": pa.array(hod, pa.int64()),
                "n_events": pa.array(c, pa.int64()),
                "is_anomaly": pa.array(lhs > rhs),
            }
        )

    return counts.map_batches(flag, batch_format="pyarrow")


def hourly_anomalies_sql(k: int = K_SIGMA, source: str = "events") -> str:
    """DuckDB mirror of :func:`hourly_anomalies`."""
    return (
        "WITH ha_c AS (SELECT "
        f"CAST(epoch_us(ts) // {US_PER_HOUR} AS BIGINT) AS hr, "
        f"CAST(count(*) AS BIGINT) AS n_events FROM {source} GROUP BY hr), "
        "ha_p AS (SELECT hr % 24 AS hod, "
        "CAST(sum(n_events) AS BIGINT) AS s, "
        "CAST(sum(n_events * n_events) AS BIGINT) AS q, "
        "CAST(count(*) AS BIGINT) AS n FROM ha_c GROUP BY hr % 24) "
        "SELECT c.hr, c.hr % 24 AS hod, c.n_events, "
        "(p.n * c.n_events - p.s) * (p.n * c.n_events - p.s) "
        f"> {k * k} * (p.n * p.q - p.s * p.s) AS is_anomaly "
        "FROM ha_c c JOIN ha_p p ON p.hod = c.hr % 24"
    )


# ------------------------------------------------------ A/B chi-square

CHI2_95_E6 = 3_841_459  # 3.841459 * 1e6: chi2(1) 95% critical value


def ab_chisq(events_ds, success_type: str = "purchase"):
    """Integer-exact A/B experiment readout: users split into arms by
    id parity, success = emitting a ``success_type`` event; the 2x2
    chi-square statistic computes as
    ``chi2 = n*(ad - bc)^2 / ((a+b)(c+d)(a+c)(b+d))`` — one floor
    division at the very end (numerator/denominator are exact python
    ints; a, b, c, d are EVENT counts, the classic contingency), so
    the mirror is bit-trivial. Output: the four cells, chi2_e6, and
    the 95% significance flag.

    Shape: per-batch 4-cell partials -> one 4-row groupby -> a single
    driver row. Nothing is corpus-proportional after the scan."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from .cogroup import one_task

    def partial(t: pa.Table) -> pa.Table:
        uid = t.column("user_id").to_numpy()
        et = t.column("event_type").to_pandas()
        arm = (uid % 2).astype(np.int64)
        succ = (et == success_type).to_numpy().astype(np.int64)
        df = (
            pd.DataFrame({"cell": arm * 2 + succ})
            .groupby("cell", sort=False)
            .size()
            .reset_index(name="n")
        )
        return pa.Table.from_pandas(df, preserve_index=False)

    def finish(t: pa.Table) -> pa.Table:
        cells = dict(
            zip(
                t.column("cell").to_numpy().tolist(),
                t.column("sum(n)").to_numpy().tolist(),
            )
        )
        # a = arm0 success, b = arm0 other, c = arm1 success, d = other
        a = int(cells.get(1, 0))
        b = int(cells.get(0, 0))
        c = int(cells.get(3, 0))
        d = int(cells.get(2, 0))
        n = a + b + c + d
        denom = (a + b) * (c + d) * (a + c) * (b + d)
        chi2_e6 = (1_000_000 * n * (a * d - b * c) ** 2) // denom if denom else 0
        return pa.table(
            {
                "a_succ": pa.array([a], pa.int64()),
                "a_other": pa.array([b], pa.int64()),
                "b_succ": pa.array([c], pa.int64()),
                "b_other": pa.array([d], pa.int64()),
                "chi2_e6": pa.array([chi2_e6], pa.int64()),
                "significant": pa.array([chi2_e6 > CHI2_95_E6]),
            }
        )

    counts = (
        events_ds.map_batches(partial, batch_format="pyarrow")
        .groupby("cell")
        .aggregate(Sum("n", alias_name="sum(n)"))
    )
    return rd.from_arrow(
        one_task(lambda t: pa.table({}) if t is None else finish(t), counts)
    )


def ab_chisq_sql(success_type: str = "purchase",
                 source: str = "events") -> str:
    """DuckDB mirror of :func:`ab_chisq`."""
    return (
        f"WITH ab_c AS (SELECT "
        "CAST(sum(CASE WHEN user_id % 2 = 0 AND event_type = "
        f"'{success_type}' THEN 1 ELSE 0 END) AS HUGEINT) AS a, "
        "CAST(sum(CASE WHEN user_id % 2 = 0 AND event_type <> "
        f"'{success_type}' THEN 1 ELSE 0 END) AS HUGEINT) AS b, "
        "CAST(sum(CASE WHEN user_id % 2 = 1 AND event_type = "
        f"'{success_type}' THEN 1 ELSE 0 END) AS HUGEINT) AS c, "
        "CAST(sum(CASE WHEN user_id % 2 = 1 AND event_type <> "
        f"'{success_type}' THEN 1 ELSE 0 END) AS HUGEINT) AS d "
        f"FROM {source}) "
        "SELECT CAST(a AS BIGINT) AS a_succ, CAST(b AS BIGINT) AS a_other, "
        "CAST(c AS BIGINT) AS b_succ, CAST(d AS BIGINT) AS b_other, "
        "CAST((1000000 * (a+b+c+d) * (a*d - b*c) * (a*d - b*c)) "
        "// ((a+b) * (c+d) * (a+c) * (b+d)) AS BIGINT) AS chi2_e6, "
        "(1000000 * (a+b+c+d) * (a*d - b*c) * (a*d - b*c)) "
        f"// ((a+b) * (c+d) * (a+c) * (b+d)) > {CHI2_95_E6} AS significant "
        "FROM ab_c"
    )
