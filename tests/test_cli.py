"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_train_defaults(self):
        args = build_parser().parse_args(["train"])
        assert args.machine == "core2"
        assert args.scale == "small"
        assert not args.force

    def test_advise_validates_app(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["advise", "nonexistent"])

    def test_appgen_accepts_seed(self):
        args = build_parser().parse_args(["appgen", "42",
                                          "--group", "set"])
        assert args.seed == 42
        assert args.group == "set"

    def test_darwin_defaults(self):
        args = build_parser().parse_args(["darwin", "xalan"])
        assert args.app == "xalan"
        assert args.input is None
        assert args.machine == "core2"
        assert args.generations is None  # defer to RunOptions defaults
        assert args.population is None
        assert args.objectives is None
        assert args.seed == 0
        assert args.jobs is None

    def test_darwin_accepts_search_knobs(self):
        args = build_parser().parse_args([
            "darwin", "chord", "--input", "small", "--scale", "tiny",
            "--generations", "3", "--population", "8",
            "--objectives", "cycles,memory", "--seed", "7",
            "--jobs", "2",
        ])
        assert args.generations == 3
        assert args.population == 8
        assert args.objectives == "cycles,memory"
        assert args.seed == 7
        assert args.jobs == 2

    def test_darwin_validates_app(self):
        with pytest.raises(SystemExit) as exc_info:
            build_parser().parse_args(["darwin", "nonexistent"])
        assert exc_info.value.code == 2


class TestErrorPaths:
    def test_unknown_machine_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            build_parser().parse_args(["train", "--machine", "i860"])
        assert exc_info.value.code == 2

    def test_unknown_group_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            build_parser().parse_args(["appgen", "1", "--group", "trie"])
        assert exc_info.value.code == 2

    def test_resolvers_raise_friendly_errors(self):
        from repro import api
        from repro.cli import CLIError
        with pytest.raises(CLIError, match="unknown machine"):
            api.resolve_machine("i860")
        with pytest.raises(CLIError, match="unknown model group"):
            api.resolve_group("trie")
        with pytest.raises(CLIError, match="unknown scale"):
            api.resolve_scale("galactic")

    def test_cli_error_exits_2(self, monkeypatch, capsys):
        from repro import cli as cli_mod
        from repro.cli import CLIError

        def boom(args):
            raise CLIError("unknown machine 'i860'")

        monkeypatch.setattr(cli_mod, "cmd_census", boom)
        parser = cli_mod.build_parser()
        args = parser.parse_args(["census"])
        args.fn = boom
        monkeypatch.setattr(cli_mod, "build_parser",
                            lambda: _FixedParser(args))
        assert cli_mod.main(["census"]) == 2
        assert "unknown machine" in capsys.readouterr().err

    def test_interrupted_training_exits_130(self, monkeypatch, capsys):
        from repro import api, cli as cli_mod
        from repro.runtime.checkpoint import TrainingInterrupted

        def interrupted(machine_config, scale, config=None, force=False,
                        **kwargs):
            raise TrainingInterrupted("phase 1 interrupted at seed 7")

        monkeypatch.setattr(api, "get_or_train_suite", interrupted)
        assert cli_mod.main(["train", "--scale", "tiny"]) == 130
        err = capsys.readouterr().err
        assert "interrupted" in err
        assert "--resume" in err

    def test_bad_checkpoint_every_exits_2(self, capsys):
        assert main(["train", "--checkpoint-every", "0"]) == 2
        assert "checkpoint_every" in capsys.readouterr().err

    def test_bad_jobs_exits_2(self, capsys):
        assert main(["train", "--jobs", "0"]) == 2
        assert "jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "abc"])
    def test_bad_repro_jobs_env_exits_2(self, monkeypatch, capsys, value):
        monkeypatch.setenv("REPRO_JOBS", value)
        assert main(["train", "--scale", "tiny"]) == 2
        assert "REPRO_JOBS" in capsys.readouterr().err

    def test_missing_telemetry_file_exits_2(self, tmp_path, capsys):
        assert main(["telemetry", str(tmp_path / "nope.json")]) == 2
        assert "no telemetry file" in capsys.readouterr().err

    def test_darwin_bad_generations_exits_2(self, capsys):
        assert main(["darwin", "xalan", "--generations", "0"]) == 2
        assert "darwin_generations" in capsys.readouterr().err

    def test_darwin_bad_objectives_exits_2(self, capsys):
        assert main(["darwin", "xalan", "--objectives", "latency"]) == 2
        assert "unknown darwin objective" in capsys.readouterr().err

    def test_darwin_command_renders_front(self, monkeypatch, capsys):
        from repro import api

        class _Stub:
            def format(self):
                return "Darwinian search — stub front"

        seen = {}

        def fake_darwin(app, **kwargs):
            seen["app"] = app
            seen.update(kwargs)
            return _Stub()

        monkeypatch.setattr(api, "darwin", fake_darwin)
        assert main(["darwin", "chord", "--generations", "3",
                     "--objectives", "memory"]) == 0
        assert "stub front" in capsys.readouterr().out
        assert seen["app"] == "chord"
        assert seen["generations"] == 3
        assert seen["objectives"] == ("memory",)


class _FixedParser:
    def __init__(self, args):
        self._args = args

    def parse_args(self, argv=None):
        return self._args


class TestCensusCommand:
    def test_census_renders_chart(self, capsys):
        assert main(["census", "--files", "30", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "vector" in out
        assert "█" in out


class TestAppgenCommand:
    def test_appgen_measures_candidates(self, capsys):
        assert main(["appgen", "5", "--group", "map"]) == 0
        out = capsys.readouterr().out
        assert "candidate" in out
        assert "hash_map" in out
        assert "best (5% margin):" in out

    def test_appgen_with_config_file(self, tmp_path, capsys):
        config_path = tmp_path / "gen.conf"
        config_path.write_text("TotalInterfCalls = 60\n"
                               "MaxPrefill = 10\n")
        assert main(["appgen", "5", "--group", "set",
                     "--config", str(config_path)]) == 0
        assert "best" in capsys.readouterr().out


class TestTrainAndAdvise:
    def test_train_then_advise(self, tmp_path, monkeypatch, capsys,
                               install_suite):
        # Point the cache at a temp dir and register a unit-test scale,
        # whose suite the session has trained already.
        from repro.models import cache as cache_mod
        monkeypatch.setattr(cache_mod, "CACHE_DIR", tmp_path)
        tiny = cache_mod.ScaleParams("cli", per_class_target=3,
                                     max_seeds=60, validation_apps=5,
                                     hidden=(8,))
        monkeypatch.setitem(cache_mod.SCALES, "cli", tiny)
        install_suite(tmp_path, "cli")

        assert main(["train", "--machine", "core2",
                     "--scale", "cli"]) == 0
        out = capsys.readouterr().out
        assert "models:" in out

        assert main(["advise", "relipmoc", "--input", "small",
                     "--machine", "core2", "--scale", "cli"]) == 0
        out = capsys.readouterr().out
        assert "Brainy report" in out
        assert "basic_blocks" in out

    def test_advise_unknown_input(self, capsys):
        code = main(["advise", "relipmoc", "--input", "bogus"])
        assert code == 2
        assert "unknown input" in capsys.readouterr().err


class TestVersion:
    def test_version_flag(self, capsys):
        import repro
        with pytest.raises(SystemExit) as exc_info:
            main(["--version"])
        assert exc_info.value.code == 0
        assert repro.__version__ in capsys.readouterr().out


class TestTelemetryCommand:
    def test_train_writes_telemetry_and_summary_renders(
            self, tmp_path, monkeypatch, capsys):
        from repro.models import cache as cache_mod
        monkeypatch.setattr(cache_mod, "CACHE_DIR", tmp_path / "cache")
        tiny = cache_mod.ScaleParams("clitel", per_class_target=2,
                                     max_seeds=40, validation_apps=5,
                                     hidden=(8,))
        monkeypatch.setitem(cache_mod.SCALES, "clitel", tiny)
        telemetry_path = tmp_path / "train.telemetry.json"

        assert main(["train", "--scale", "clitel",
                     "--telemetry", str(telemetry_path)]) == 0
        out = capsys.readouterr().out
        assert str(telemetry_path) in out
        assert telemetry_path.exists()

        assert main(["telemetry", str(telemetry_path)]) == 0
        summary = capsys.readouterr().out
        assert "telemetry: train" in summary
        assert "span tree" in summary
        assert "train.group" in summary
        assert "phase1.seed" in summary
        assert "phase1.seeds" in summary
        assert "sim.runs" in summary
        assert "fault taxonomy" in summary


class TestValidateCommand:
    def test_validate_with_tiny_suite(self, tmp_path, monkeypatch,
                                      capsys, install_suite):
        from repro.models import cache as cache_mod
        monkeypatch.setattr(cache_mod, "CACHE_DIR", tmp_path)
        tiny = cache_mod.ScaleParams("cli2", per_class_target=3,
                                     max_seeds=60, validation_apps=5,
                                     hidden=(8,))
        monkeypatch.setitem(cache_mod.SCALES, "cli2", tiny)
        install_suite(tmp_path, "cli2")
        code = main(["validate", "--group", "map", "--scale", "cli2",
                     "--apps", "6"])
        assert code == 0
        out = capsys.readouterr().out
        assert "map on core2:" in out
        assert "hash_map" in out  # confusion matrix header
