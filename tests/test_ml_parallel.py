"""Suite-level training fan-out: ``jobs`` fans out each task's Phase I
seeds, and the saved suite stays byte-identical to the serial run."""

import pytest

from repro.appgen.config import GeneratorConfig
from repro.containers.registry import MODEL_GROUPS
from repro.machine.configs import CORE2
from repro.models.brainy import BrainySuite
from repro.runtime.options import RunOptions

GROUPS = [MODEL_GROUPS["vector_oo"], MODEL_GROUPS["set"]]
CONFIG = GeneratorConfig.small()


def train_suite(**extra):
    kwargs = dict(machine_config=CORE2, config=CONFIG, groups=GROUPS,
                  per_class_target=3, max_seeds=60)
    kwargs.update(extra)
    return BrainySuite.train(**kwargs)


def suite_bytes(suite, directory):
    suite.save(directory)
    return {path.name: path.read_bytes()
            for path in sorted(directory.iterdir())}


class TestSuiteFanout:
    @pytest.fixture(scope="class")
    def serial_bytes(self, tmp_path_factory):
        return suite_bytes(train_suite(),
                           tmp_path_factory.mktemp("serial"))

    def test_group_fanout_matches_serial(self, serial_bytes, tmp_path):
        """jobs=2 fans out each task's Phase I seeds; the saved suite
        must be byte-identical to the serial run's."""
        fanned = train_suite(options=RunOptions(jobs=2))
        assert suite_bytes(fanned, tmp_path) == serial_bytes

    def test_single_group_routes_jobs_inward(self, serial_bytes,
                                             tmp_path):
        """A one-task suite fans out its Phase I seeds the same way;
        its saved model is still byte-identical to the serial run's."""
        fanned = train_suite(groups=GROUPS[:1],
                             options=RunOptions(jobs=2))
        fanned_bytes = suite_bytes(fanned, tmp_path)
        name = f"{GROUPS[0].name}.json"
        assert fanned_bytes[name] == serial_bytes[name]
