"""Simulation checkpoint/resume and the serve/run CLI surface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.fingerprint import fingerprint_digest
from repro.api import scenarios
from repro.api.envelope import run_scenario
from repro.cli import main
from repro.errors import ServiceError
from repro.service import (
    load_experiment_checkpoint,
    resume_run,
    run_with_checkpoints,
)

REPO_SRC = str(Path(__file__).resolve().parents[1] / "src")

TINY = (
    scenarios.get("fast")
    .to_builder()
    .named("tiny")
    .with_duration_days(6.0)
    .with_emails_per_account(8, 12)
    .build()
)


@pytest.fixture(scope="module")
def plain_fingerprint():
    return fingerprint_digest(run_scenario(TINY).analysis)


def test_checkpointed_run_matches_the_uninterrupted_run(
    tmp_path, plain_fingerprint
):
    result, paths = run_with_checkpoints(
        TINY, every_days=2.0, directory=tmp_path
    )
    assert [p.name for p in paths] == [
        "checkpoint_day_2.pkl", "checkpoint_day_4.pkl",
    ]
    assert fingerprint_digest(result.analysis) == plain_fingerprint


def test_resume_finishes_bit_identically(tmp_path, plain_fingerprint):
    _, paths = run_with_checkpoints(
        TINY, every_days=3.0, directory=tmp_path
    )
    resumed = resume_run(paths[0])
    assert fingerprint_digest(resumed.analysis) == plain_fingerprint
    assert resumed.scenario.name == TINY.name


def test_resume_survives_a_process_boundary(tmp_path, plain_fingerprint):
    """A checkpoint written here resumes in a *different* process (and
    hash seed) to the identical analysis fingerprint."""
    _, paths = run_with_checkpoints(
        TINY, every_days=3.0, directory=tmp_path
    )
    output = subprocess.run(
        [
            sys.executable, "-m", "repro", "run",
            "--resume-from", str(paths[0]),
            "--fingerprint",
        ],
        env={
            **os.environ,
            "PYTHONPATH": REPO_SRC,
            "PYTHONHASHSEED": "271828",
        },
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    line = next(
        ln for ln in output.splitlines()
        if ln.startswith("analysis fingerprint: ")
    )
    assert line.split(": ", 1)[1] == plain_fingerprint


def test_checkpoints_ignore_ad_hoc_registered_personas(tmp_path):
    """The process-global persona registry pickles by reference: a
    persona registered by a module the resuming process cannot import
    (this test file) must not poison the checkpoint."""
    from repro.attackers.personas import Persona, personas, register_persona

    @register_persona(replace=True)
    class _CheckpointLocalPersona(Persona):
        name = "checkpoint_local_test_persona"
        summary = "registered by a test module only"

    try:
        _, paths = run_with_checkpoints(
            TINY, every_days=3.0, directory=tmp_path
        )
        subprocess.run(
            [
                sys.executable, "-c",
                "import sys; from repro.service import "
                "load_experiment_checkpoint; "
                "load_experiment_checkpoint(sys.argv[1])",
                str(paths[0]),
            ],
            env={**os.environ, "PYTHONPATH": REPO_SRC},
            capture_output=True,
            text=True,
            check=True,
        )
    finally:
        personas._entries.pop("checkpoint_local_test_persona", None)


def test_checkpoint_payload_carries_the_scenario(tmp_path):
    _, paths = run_with_checkpoints(
        TINY, every_days=3.0, directory=tmp_path
    )
    payload = load_experiment_checkpoint(paths[0])
    assert payload["scenario"].name == TINY.name
    assert payload["completed_day"] == 3.0


def test_bad_checkpoint_interval_is_rejected(tmp_path):
    with pytest.raises(ServiceError, match="positive"):
        run_with_checkpoints(TINY, every_days=0, directory=tmp_path)


def test_corrupt_experiment_checkpoints_are_rejected(tmp_path):
    path = tmp_path / "broken.pkl"
    path.write_bytes(b"not a pickle")
    with pytest.raises(ServiceError, match="corrupt"):
        load_experiment_checkpoint(path)
    with pytest.raises(ServiceError, match="cannot read"):
        load_experiment_checkpoint(tmp_path / "absent.pkl")


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------


class TestServeCli:
    def test_unknown_scenario_exits_2_listing_known_names(self, capsys):
        assert main(["serve", "--scenario", "warpdrive"]) == 2
        err = capsys.readouterr().err
        assert "unknown scenario 'warpdrive'" in err
        assert "paper_default" in err
        assert "fast" in err

    def test_self_fed_serve_smoke(self, tmp_path, capsys):
        scenario_json = TINY.to_json()
        # The self-fed smoke exercises the whole stack: registry
        # resolution, HTTP feed, WAL, checkpoint-on-shutdown.
        exit_code = main([
            "serve",
            "--scenario", "fast",
            "--duration-days", "6",
            "--seed", "7",
            "--shutdown-after-feed",
            "--wal", str(tmp_path / "events.wal"),
            "--checkpoint", str(tmp_path / "service.ckpt"),
        ])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "serving on http://" in out
        assert "feed complete: " in out
        assert (tmp_path / "events.wal").exists()
        checkpoint = json.loads(
            (tmp_path / "service.ckpt").read_text()
        )
        assert checkpoint["kind"] == "service_checkpoint"
        assert checkpoint["wal_position"] > 0
        assert scenario_json  # silences the unused variable


class TestRunCheckpointCli:
    def test_unknown_scenario_exits_2_listing_known_names(self, capsys):
        assert main(["run", "--scenario", "warpdrive"]) == 2
        err = capsys.readouterr().err
        assert "unknown scenario 'warpdrive'" in err
        assert "known scenarios:" in err

    def test_checkpoint_every_writes_and_reports(self, tmp_path, capsys):
        scenario_file = tmp_path / "tiny.json"
        scenario_file.write_text(TINY.to_json())
        exit_code = main([
            "run",
            "--scenario-file", str(scenario_file),
            "--checkpoint-every", "3",
            "--checkpoint-dir", str(tmp_path / "ckpt"),
        ])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "wrote checkpoint: " in out
        assert (tmp_path / "ckpt" / "checkpoint_day_3.pkl").exists()

    def test_checkpoint_every_rejects_sharding(self, capsys):
        exit_code = main([
            "run", "--checkpoint-every", "3", "--shards", "4",
        ])
        assert exit_code == 2
        assert "--shards" in capsys.readouterr().err

    def test_resume_from_rejects_scenario_overrides(self, capsys):
        exit_code = main([
            "run", "--resume-from", "x.pkl", "--scenario", "fast",
        ])
        assert exit_code == 2
        assert "--scenario" in capsys.readouterr().err

    def test_resume_from_rejects_defenses(self, capsys):
        exit_code = main([
            "run", "--resume-from", "x.pkl", "--defenses", "c3",
        ])
        assert exit_code == 2
        assert "--defenses" in capsys.readouterr().err

    def test_resume_from_missing_file_exits_2(self, capsys):
        exit_code = main([
            "run", "--resume-from", "does-not-exist.pkl",
        ])
        assert exit_code == 2
        assert "cannot read checkpoint" in capsys.readouterr().err
