"""Page-provenance lineage: pure-observer byte attribution.

Two layers of coverage: unit tests drive a bare
:class:`~repro.obs.lineage.LineageTracker` through its hooks (duplicate
pulls, touch capping, storage put/get claiming, the ambient edge
context), and integration tests run real workloads per transport and
check the derived metrics — transfer amplification ordering across
transports, prefetch waste on scattered edges — plus the pure-observer
contract: simulated time, fleet JSON and chaos fingerprints are
bit-identical with lineage on or off.
"""

import pytest

from repro.api import run, run_fleet
from repro.obs import LINEAGE_SCHEMA, LineageTracker
from repro.units import PAGE_SIZE

SCALE = 0.02


# -- tracker unit tests --------------------------------------------------------


def test_duplicate_pulls_counted_per_binding():
    lin = LineageTracker()
    lin.registered("f1", "prod", 4, 0, 4 * PAGE_SIZE)
    lin.bound("f1", "cons", 0, 4 * PAGE_SIZE)
    lin.page_pulled("rmap:f1", "cons", 0, "demand", PAGE_SIZE)
    lin.page_pulled("rmap:f1", "cons", 0, "demand", PAGE_SIZE)
    edge = lin.report()["edges"]["prod->cons@rmmap"]
    assert edge["pages"]["duplicate_pulls"] == 1
    assert edge["bytes_moved"] == 2 * PAGE_SIZE


def test_touched_bytes_capped_at_page_size():
    lin = LineageTracker()
    lin.registered("f1", "prod", 2, 0, 2 * PAGE_SIZE)
    lin.bound("f1", "cons", 0, 2 * PAGE_SIZE)
    for _ in range(3):  # overlapping reads must not over-count a page
        lin.touched("cons", 100, PAGE_SIZE)
    edge = lin.report()["edges"]["prod->cons@rmmap"]
    # page 0 saturates at PAGE_SIZE, page 1 accumulates 100 per read
    assert edge["bytes_touched"] == PAGE_SIZE + 300
    assert edge["bytes_touched"] <= 2 * PAGE_SIZE


def test_touches_outside_the_binding_are_ignored():
    lin = LineageTracker()
    lin.registered("f1", "prod", 1, 0, PAGE_SIZE)
    lin.bound("f1", "cons", 0, PAGE_SIZE)
    lin.touched("cons", 10 * PAGE_SIZE, 64)  # beyond the mapping
    lin.touched("other-space", 0, 64)        # unwatched space
    assert lin.report()["edges"]["prod->cons@rmmap"]["bytes_touched"] == 0


def test_unmap_stops_watching_but_stats_persist():
    lin = LineageTracker()
    lin.registered("f1", "prod", 1, 0, PAGE_SIZE)
    lin.bound("f1", "cons", 0, PAGE_SIZE)
    lin.touched("cons", 0, 64)
    lin.vma_unmapped("cons", "rmap:f1")
    lin.touched("cons", 0, 64)  # after unmap: not attributed
    assert lin.report()["edges"]["prod->cons@rmmap"]["bytes_touched"] == 64


def test_storage_put_claimed_by_first_get():
    lin = LineageTracker()
    prev = lin.set_edge("a->b", "storage")
    lin.storage_put("storage", "k1", 1000)
    lin.storage_get("storage", "k1", 1000)
    lin.restore_edge(prev)
    report = lin.report()
    edge = report["edges"]["a->b@storage"]
    assert edge["bytes_moved"] == 2000  # put + get double movement
    assert edge["bytes_touched"] == 1000
    assert edge["amplification"] == 2.0
    assert report["unclaimed_put_bytes"] == 0


def test_unclaimed_puts_fold_into_totals():
    lin = LineageTracker()
    lin.storage_put("storage", "orphan", 500)
    report = lin.report()
    assert report["unclaimed_put_bytes"] == 500
    assert report["totals"]["bytes_moved"] == 500


def test_edge_context_nests_and_restores():
    lin = LineageTracker()
    prev = lin.set_edge("x->y", "messaging")
    assert prev is None
    inner = lin.set_edge("y->z", "messaging")
    assert inner == ("x->y", "messaging")
    lin.restore_edge(inner)
    lin.logical_transfer("messaging", moved=10, payload=10)
    assert "x->y@messaging" in lin.report()["edges"]


def test_prefetched_but_untouched_pages_are_waste():
    lin = LineageTracker()
    lin.registered("f1", "prod", 8, 0, 8 * PAGE_SIZE)
    lin.bound("f1", "cons", 0, 8 * PAGE_SIZE)
    for vpn in range(8):
        lin.page_pulled("rmap:f1", "cons", vpn, "prefetch", PAGE_SIZE)
    lin.touched("cons", 0, 2 * PAGE_SIZE)  # only pages 0-1 used
    edge = lin.report()["edges"]["prod->cons@rmmap"]
    assert edge["prefetch_waste"]["pages"] == 6
    assert edge["prefetch_waste"]["bytes"] == 6 * PAGE_SIZE


# -- integration: real workloads per transport ---------------------------------


@pytest.fixture(scope="module")
def wordcount_reports():
    """Lineage reports of one seeded wordcount run per transport."""
    reports = {}
    for name in ("rmmap", "rmmap-prefetch", "messaging", "storage"):
        result = run("wordcount", transport=name, seed=0, scale=SCALE,
                     lineage=True)
        reports[name] = result.lineage()
    return reports


def test_report_shape(wordcount_reports):
    report = wordcount_reports["rmmap"]
    assert report["schema"] == LINEAGE_SCHEMA
    assert report["page_size"] == PAGE_SIZE
    assert report["edges"]
    for key, edge in report["edges"].items():
        assert "@" in key
        assert edge["kind"] in ("pages", "logical")
        assert edge["bytes_moved"] >= 0
        assert set(edge["window"]) == {"first_ns", "last_ns"}
    assert "rmmap" in report["by_transport"]
    totals = report["totals"]
    assert totals["bytes_moved"] > 0
    assert totals["bytes_touched"] > 0


def test_objects_attributed_to_edges(wordcount_reports):
    # object attribution rides the producer-side prefetch traversal;
    # plain (demand) rmmap never walks the graph, so only the prefetch
    # variant carries per-TypeTag maps
    edges = wordcount_reports["rmmap-prefetch"]["edges"]
    tagged = [e for e in edges.values() if e["objects"]]
    assert tagged
    for edge in tagged:
        for stats in edge["objects"].values():
            assert stats["count"] > 0
            assert stats["bytes"] > 0
    assert not any(e["objects"]
                   for e in wordcount_reports["rmmap"]["edges"].values())


def test_amplification_orders_the_transport_matrix(wordcount_reports):
    amp = {name: report["totals"]["amplification"]
           for name, report in wordcount_reports.items()}
    # demand paging moves only touched pages (plus page-granularity
    # rounding); messaging inflates by its per-byte overhead; storage
    # moves everything twice (put + get)
    assert 1.0 < amp["rmmap"] < amp["messaging"] < amp["storage"]
    assert amp["storage"] == pytest.approx(2.0)


def test_prefetch_waste_on_scattered_edges(wordcount_reports):
    eager = wordcount_reports["rmmap-prefetch"]["totals"]
    demand = wordcount_reports["rmmap"]["totals"]
    # wordcount scatters one output across all partitions: eager
    # prefetch pulls the full page list per consumer and most of it is
    # never touched
    assert eager["prefetch_waste_bytes"] > 0
    assert eager["amplification"] > demand["amplification"]
    assert demand["prefetch_waste_bytes"] == 0


def test_lineage_report_is_deterministic():
    one = run("wordcount", transport="rmmap-prefetch", seed=0,
              scale=SCALE, lineage=True).lineage()
    two = run("wordcount", transport="rmmap-prefetch", seed=0,
              scale=SCALE, lineage=True).lineage()
    assert one == two


def test_lineage_requires_opt_in():
    result = run("wordcount", transport="rmmap", seed=0, scale=SCALE,
                 telemetry=True)
    with pytest.raises(ValueError, match="lineage=True"):
        result.lineage()


# -- the pure-observer contract ------------------------------------------------


def test_single_run_is_bit_identical_with_lineage_on_and_off():
    on = run("wordcount", transport="rmmap-prefetch", seed=0,
             scale=SCALE, lineage=True)
    off = run("wordcount", transport="rmmap-prefetch", seed=0,
              scale=SCALE)
    assert on.latency_ns == off.latency_ns
    assert on.stage_totals() == off.stage_totals()


def test_page_run_faults_are_bit_identical_with_lineage_on_and_off():
    """Image batches and tree arrays: reads of 5-11 pages, faulted a run
    at a time, every page still recorded on its own."""
    on = run("ml-prediction", transport="rmmap", seed=0, scale=SCALE,
             lineage=True)
    off = run("ml-prediction", transport="rmmap", seed=0, scale=SCALE)
    assert on.latency_ns == off.latency_ns
    assert on.stage_totals() == off.stage_totals()
    demand = sum(edge["pages"]["demand"]
                 for edge in on.lineage()["edges"].values())
    assert demand > 1000


def test_fleet_json_is_bit_identical_with_lineage_on_and_off():
    on = run_fleet(smoke=True, lineage=True)
    off = run_fleet(smoke=True)
    assert on.telemetry.lineage is not None
    assert on.to_json() == off.to_json()


def test_chaos_fingerprint_is_identical_with_lineage_on_and_off():
    on = run("wordcount", chaos={"requests": 2, "n_machines": 4},
             lineage=True)
    off = run("wordcount", chaos={"requests": 2, "n_machines": 4})
    assert on.chaos_report.fingerprint() == off.chaos_report.fingerprint()
