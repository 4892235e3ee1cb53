//! The probes' JSON forms, in two kinds.
//!
//! * **Lossless snapshots** — [`counters_to_json`]/[`counters_from_json`]
//!   and [`sites_to_json`]/[`sites_from_json`] carry every field (the raw
//!   issue state, each histogram's exact parts, the whole site table
//!   sorted by PC) and round-trip exactly. Obs journals and the
//!   `obs_grid.json` rollup use them, which is what makes a resumed grid
//!   byte-identical to an uninterrupted one.
//! * **Report views** — [`counters_summary_json`] and [`top_sites_json`]
//!   add derived fields (issue utilization with idle cycles folded in,
//!   rounded means, per-site mispredicts) and keep only the top sites.
//!   They cannot be inverted.

use crate::counters::ISSUE_BUCKETS;
use crate::{CounterProbe, Json, Log2Hist, SiteProbe, SiteStats};

fn n(v: u64) -> Json {
    Json::Num(v as f64)
}

fn u(j: &Json, path: &str) -> Option<u64> {
    j.num(path).filter(|v| *v >= 0.0).map(|v| v as u64)
}

/// An array of `len` numbers as `u64`s; `None` on any other shape.
fn u64s(j: Option<&Json>, len: usize) -> Option<Vec<u64>> {
    let Some(Json::Arr(items)) = j else {
        return None;
    };
    let v: Vec<u64> = items
        .iter()
        .map(|x| match x {
            Json::Num(x) => Some(*x as u64),
            _ => None,
        })
        .collect::<Option<_>>()?;
    (v.len() == len).then_some(v)
}

/// `x` as `format!("{x:.places$}")` prints it, so report views keep
/// their fixed precision once rendered.
fn rounded(x: f64, places: usize) -> Json {
    Json::Num(
        format!("{x:.places$}")
            .parse()
            .expect("a formatted float parses"),
    )
}

fn buckets_json(h: &Log2Hist) -> Json {
    Json::Arr(
        h.nonzero_buckets()
            .map(|(lo, count)| Json::Arr(vec![n(lo), n(count)]))
            .collect(),
    )
}

fn hist_to_json(h: &Log2Hist) -> Json {
    Json::obj([
        ("sum", n(h.sum())),
        ("max", n(h.max())),
        ("buckets", buckets_json(h)),
    ])
}

fn hist_from_json(j: &Json) -> Option<Log2Hist> {
    let sum = u(j, "sum")?;
    let max = u(j, "max")?;
    let Some(Json::Arr(rows)) = j.get("buckets") else {
        return None;
    };
    let buckets: Vec<(u64, u64)> = rows
        .iter()
        .map(|row| u64s(Some(row), 2).map(|p| (p[0], p[1])))
        .collect::<Option<_>>()?;
    Some(Log2Hist::from_parts(buckets, sum, max))
}

/// The layout both counter forms share: the scalar counters, the
/// form's `issue` fields, every histogram rendered by `hist`, and the
/// cache snapshot as `[hits, misses]` per level.
fn counters_json(
    c: &CounterProbe,
    issue: Vec<(&'static str, Json)>,
    hist: fn(&Log2Hist) -> Json,
) -> Json {
    let mut fields = vec![
        ("cycles", n(c.cycles)),
        ("fetched", n(c.fetched)),
        ("committed", n(c.committed)),
        ("writebacks", n(c.writebacks)),
        ("branches", n(c.branches)),
        ("mispredicts", n(c.mispredicts)),
    ];
    fields.extend(issue);
    let hists = c.histograms().map(|(name, h)| (name.to_string(), hist(h)));
    let cache = c
        .cache
        .rows()
        .map(|(name, hits, misses)| (name.to_string(), Json::Arr(vec![n(hits), n(misses)])));
    fields.push(("hist", Json::Obj(hists.into())));
    fields.push(("cache", Json::Obj(cache.into())));
    Json::obj(fields)
}

/// Full-fidelity [`CounterProbe`] serialization: every scalar counter,
/// the raw issue state, each histogram's exact parts, and the cache
/// snapshot. Unlike [`counters_summary_json`], this is invertible via
/// [`counters_from_json`].
pub fn counters_to_json(c: &CounterProbe) -> Json {
    let issue = Json::obj([
        ("counts", Json::Arr(c.issue_counts.map(n).into())),
        ("cycles", n(c.issue_cycles)),
        ("width", n(c.issue_width as u64)),
    ]);
    counters_json(c, vec![("issue", issue)], hist_to_json)
}

/// Inverse of [`counters_to_json`]; `None` on any malformed field.
pub fn counters_from_json(j: &Json) -> Option<CounterProbe> {
    let mut c = CounterProbe::new();
    c.cycles = u(j, "cycles")?;
    c.fetched = u(j, "fetched")?;
    c.committed = u(j, "committed")?;
    c.writebacks = u(j, "writebacks")?;
    c.branches = u(j, "branches")?;
    c.mispredicts = u(j, "mispredicts")?;
    c.issue_counts
        .copy_from_slice(&u64s(j.get("issue.counts"), ISSUE_BUCKETS)?);
    c.issue_cycles = u(j, "issue.cycles")?;
    c.issue_width = u(j, "issue.width")? as u32;
    for (name, h) in c.histograms_mut() {
        *h = hist_from_json(j.get("hist")?.get(name)?)?;
    }
    let pair = |key| u64s(j.get("cache")?.get(key), 2).map(|v| (v[0], v[1]));
    c.cache.l1i = pair("l1i")?;
    c.cache.l1d = pair("l1d")?;
    c.cache.l2 = pair("l2")?;
    c.cache.itlb = pair("itlb")?;
    c.cache.dtlb = pair("dtlb")?;
    Some(c)
}

/// A site's counters after its PC, in table-row order.
fn site_counts(r: &SiteStats) -> [(&'static str, u64); 9] {
    [
        ("total", r.total),
        ("final_correct", r.final_correct),
        ("l1_correct", r.l1_correct),
        ("overrides", r.overrides),
        ("overrides_correcting", r.overrides_correcting),
        ("confident", r.confident),
        ("confident_wrong", r.confident_wrong),
        ("bvit_hits", r.bvit_hits),
        ("load_class", r.load_class),
    ]
}

/// The layout both site forms share: table size and drop count, then
/// the form's site list under `key`.
fn sites_json(s: &SiteProbe, key: &'static str, rows: impl Iterator<Item = Json>) -> Json {
    Json::obj([
        ("sites", n(s.sites as u64)),
        ("dropped", n(s.dropped)),
        (key, Json::Arr(rows.collect())),
    ])
}

/// Full-fidelity [`SiteProbe`] serialization: the whole table, one
/// `[pc, total, final_correct, l1_correct, overrides,
/// overrides_correcting, confident, confident_wrong, bvit_hits,
/// load_class]` row per site, sorted by PC — canonical regardless of
/// the probe's internal slot layout.
pub fn sites_to_json(s: &SiteProbe) -> Json {
    let mut rows: Vec<&SiteStats> = s.iter().collect();
    rows.sort_by_key(|r| r.pc);
    let row = |r: &SiteStats| {
        let counts = site_counts(r).map(|(_, v)| v);
        Json::Arr(std::iter::once(r.pc).chain(counts).map(n).collect())
    };
    sites_json(s, "table", rows.into_iter().map(row))
}

/// Inverse of [`sites_to_json`]; `None` on any malformed row.
pub fn sites_from_json(j: &Json) -> Option<SiteProbe> {
    let mut p = SiteProbe::new();
    let Some(Json::Arr(rows)) = j.get("table") else {
        return None;
    };
    for row in rows {
        let f = u64s(Some(row), 10)?;
        p.record_stats(&SiteStats {
            pc: f[0],
            total: f[1],
            final_correct: f[2],
            l1_correct: f[3],
            overrides: f[4],
            overrides_correcting: f[5],
            confident: f[6],
            confident_wrong: f[7],
            bvit_hits: f[8],
            load_class: f[9],
        });
    }
    // After the inserts: drops charged by an over-full reconstruction
    // add to the journaled count rather than replacing it.
    p.dropped = p.dropped.saturating_add(u(j, "dropped")?);
    Some(p)
}

/// Report view of one histogram: `{"count","sum","max","mean",
/// "buckets":[[lo,count],..]}` with the mean at three decimals.
pub(crate) fn hist_summary_json(h: &Log2Hist) -> Json {
    Json::obj([
        ("count", n(h.count())),
        ("sum", n(h.sum())),
        ("max", n(h.max())),
        ("mean", rounded(h.mean(), 3)),
        ("buckets", buckets_json(h)),
    ])
}

/// Report view of a [`CounterProbe`] (the `--obs-out` counters
/// object): the scalar counters, `mean_issued` at four decimals, issue
/// utilization as `[issued, cycles]` rows, histogram summaries and the
/// cache snapshot.
pub fn counters_summary_json(c: &CounterProbe) -> Json {
    let issue = c
        .issue_utilization()
        .into_iter()
        .map(|(issued, cycles)| Json::Arr(vec![n(issued as u64), n(cycles)]));
    let fields = vec![
        ("mean_issued", rounded(c.mean_issued(), 4)),
        ("issue", Json::Arr(issue.collect())),
    ];
    counters_json(c, fields, hist_summary_json)
}

/// Report view of a [`SiteProbe`]: `{"sites","dropped","top":[..]}`
/// with the `top` worst-mispredicting sites ([`SiteProbe::top_sites`]
/// order), each an object carrying its mispredict count.
pub fn top_sites_json(s: &SiteProbe, top: usize) -> Json {
    let site = |r: SiteStats| {
        let mut fields = vec![("pc", n(r.pc))];
        fields.extend(site_counts(&r).map(|(key, v)| (key, n(v))));
        fields.insert(2, ("mispredicts", n(r.mispredicts())));
        Json::obj(fields)
    };
    sites_json(s, "top", s.top_sites(top).into_iter().map(site))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BranchResolution, Probe as _};

    #[test]
    fn counters_round_trip_exactly() {
        let mut c = CounterProbe::new();
        c.on_cycle(0, 17);
        c.on_cycle(1, 3);
        c.on_issue(0, 2, 4);
        c.on_issue(1, 4, 4);
        c.on_fetch(0, 0, 0x40, true, false);
        c.on_commit(1, 0);
        c.on_mem_access(0, 1, 9);
        c.on_mispredict(1, 2, 0x80, 5);
        c.on_recovery(3, 12);
        c.on_chain_read(0, 0x40, 3, 2, 1);
        c.on_ddt_insert(0, 0, 7);
        c.on_writeback(1, 0);
        c.cache.l1d = (100, 7);
        c.cache.itlb = (50, 1);
        let j = counters_to_json(&c);
        let back = counters_from_json(&j).expect("round trip");
        assert_eq!(
            counters_to_json(&back).render_compact(),
            j.render_compact(),
            "serialization is a fixpoint"
        );
        // Also through a text round trip (what the journal does).
        let reparsed = Json::parse(&j.render_compact()).unwrap();
        let back2 = counters_from_json(&reparsed).expect("parse round trip");
        assert_eq!(
            counters_to_json(&back2).render_compact(),
            j.render_compact()
        );
        assert_eq!(back.cycles, 2);
        assert_eq!(back.issue_counts, c.issue_counts);
        assert_eq!(
            (back.issue_cycles, back.issue_width),
            (c.issue_cycles, c.issue_width)
        );
        assert_eq!(back.cache.l1d, (100, 7));
        assert_eq!(back.recovery.sum(), 12);
    }

    #[test]
    fn sites_round_trip_exactly() {
        let mut s = SiteProbe::with_capacity(64);
        for pc in [0x40u64, 0x80, 0x40, 0x200] {
            s.on_branch_resolve(
                0,
                pc,
                &BranchResolution {
                    actual: true,
                    final_taken: pc != 0x80,
                    l1_taken: false,
                    confident: true,
                    override_fired: true,
                    bvit_hit: false,
                    load_class: Some(true),
                },
            );
        }
        s.dropped = 3;
        let j = sites_to_json(&s);
        let back = sites_from_json(&j).expect("round trip");
        assert_eq!(back.sites, s.sites);
        assert_eq!(back.dropped, 3);
        assert_eq!(
            sites_to_json(&back).render_compact(),
            j.render_compact(),
            "serialization is a fixpoint"
        );
    }
}
