"""Golden equivalence: columnar analysis == the seed's object path.

The columnar refactor's contract is that ``analyze()`` over the columnar
:class:`~repro.core.records.ObservedDataset` is field-for-field
identical to the seed's list-of-dataclass path.  That path has been
deleted; its output survives as the pins below.  They were recorded
from the last tree that still had the row-iteration analysis, only
after that tree's direct columnar-vs-object comparison had passed on
these same runs, so matching them is matching the object path.

Covers the ``fast`` and ``paste_only`` scenarios across 3 seeds (with a
shortened window to keep the suite quick), plus pickle and JSON round
trips of the columnar store feeding the same analysis.
"""

import json
import pickle

import pytest

from repro.analysis.dataset import analyze
from repro.analysis.fingerprint import field_digest, fingerprint_digest
from repro.api.registry import scenarios
from repro.core.records import ObservedDataset

#: Every AnalysisResults field that carries Section 4 output.
COMPARED_FIELDS = (
    "unique_accesses",
    "classified",
    "label_totals",
    "outlet_distribution",
    "durations_by_label",
    "delays_by_outlet",
    "delays_by_group",
    "timeline_by_outlet",
    "circles_uk",
    "circles_us",
    "distances_uk",
    "distances_us",
    "keywords",
    "emails_read",
    "emails_sent",
    "unique_drafts",
    "located_accesses",
    "unlocated_accesses",
    "countries",
    "scan_period",
    "persona_report",
)

DURATION_DAYS = 45.0
SEEDS = (2016, 7, 99)

#: (scenario, seed) -> (``fingerprint_digest``, ``persona_report``
#: field digest) of the object path's analysis.  The fingerprint omits
#: ``persona_report``, hence its own digest.
OBJECT_PATH_PINS = {
    ("fast", 2016): (
        "6d5f3fc65e3c0e713c480af7746e35e3ab9df14246d266fc4ad7908f45d5cbc1",
        "2d36cdb561e5743f42c99d8609bcf0677dfc144cc734c91b08ffd9bd4312bdf1",
    ),
    ("fast", 7): (
        "e207d8d29d0a89a020fa7a14b97d2f5933fab3402d5ddc8859ce3e51da0fc44c",
        "59041267efd0b878636fe30678a258a02ac788f18e47b5ecfd31b8d791557222",
    ),
    ("fast", 99): (
        "3070bf0757fa6ef323cd1a0daf9b1054c09a20a514ea22dff3ee710fb54574ab",
        "1e4d0e9c35c13f5a012d0c78e7b4119ade9a1ae6745a3a6a99167c4dab1dbff9",
    ),
    ("paste_only", 2016): (
        "525376120b21496d025ab4f2c40f269e400fe1aa74865475d1bcd0121fab892f",
        "1b61a89943f1af2749b541abf074eb3009bef992a6a46d080ca77015341e9c4e",
    ),
    ("paste_only", 7): (
        "bf793ed37cd0643b0826d7103e3ca941ea336ce221ed05a814830ff471b7c931",
        "2a86c5d62f25d4db0cc28dbecd52bf9b034f4ec18efcb6d32e694d48cd7ca0e7",
    ),
    ("paste_only", 99): (
        "a8b5e6e9554283f1aad60769386a42b3e782cf6985e7d10ba53732b7a5c54e5d",
        "d38ab440be96a605627b4a2d79a57064d3c5f9e4ae126fb7ce73d563978e635a",
    ),
}


def run_dataset(scenario_name: str, seed: int):
    scenario = (
        scenarios.get(scenario_name)
        .to_builder()
        .with_duration_days(DURATION_DAYS)
        .build()
    )
    run = scenario.run(seed=seed)
    return run.dataset, run.config.scan_period


def assert_analysis_equal(left, right):
    for name in COMPARED_FIELDS:
        assert getattr(left, name) == getattr(right, name), (
            f"analysis field {name!r} differs"
        )


@pytest.mark.parametrize("scenario_name", ["fast", "paste_only"])
@pytest.mark.parametrize("seed", SEEDS)
def test_columnar_analysis_matches_object_path(scenario_name, seed):
    dataset, scan_period = run_dataset(scenario_name, seed)
    analysis = analyze(dataset, scan_period=scan_period)
    assert analysis.total_unique_accesses > 0
    assert (
        fingerprint_digest(analysis),
        field_digest(analysis, "persona_report"),
    ) == OBJECT_PATH_PINS[(scenario_name, seed)]


def test_pickle_round_trip_preserves_analysis():
    dataset, scan_period = run_dataset("fast", SEEDS[0])
    rebuilt = pickle.loads(pickle.dumps(dataset))
    assert isinstance(rebuilt, ObservedDataset)
    assert_analysis_equal(
        analyze(rebuilt, scan_period=scan_period),
        analyze(dataset, scan_period=scan_period),
    )


def test_json_round_trip_preserves_analysis():
    dataset, scan_period = run_dataset("paste_only", SEEDS[1])
    payload = json.loads(json.dumps(dataset.to_json_dict()))
    rebuilt = ObservedDataset.from_json_dict(payload)
    assert_analysis_equal(
        analyze(rebuilt, scan_period=scan_period),
        analyze(dataset, scan_period=scan_period),
    )
