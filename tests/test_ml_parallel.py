"""Suite-level training fan-out: group pipelines overlap, artifacts
stay byte-identical to the serial group loop."""

import pytest

from repro.appgen.config import GeneratorConfig
from repro.containers.registry import MODEL_GROUPS
from repro.machine.configs import CORE2
from repro.models.brainy import BrainySuite
from repro.runtime.options import RunOptions
from repro.runtime.parallel import SerialExecutor

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


class FlakyExecutor(SerialExecutor):
    """In-process executor that fails chosen submissions at get() time."""

    def __init__(self, fail_submissions):
        self.fail_submissions = set(fail_submissions)
        self.count = 0

    def submit(self, fn, args):
        index = self.count
        self.count += 1
        if index in self.fail_submissions:
            class _Boom:
                def get(self):
                    raise OSError("injected executor fault")
            return _Boom()
        return super().submit(fn, args)


class TestSuiteFanout:
    @pytest.fixture(scope="class")
    def serial_bytes(self, tmp_path_factory):
        return suite_bytes(train_suite(),
                           tmp_path_factory.mktemp("serial"))

    def test_group_fanout_matches_serial(self, serial_bytes, tmp_path):
        """jobs=2 with two groups overlaps whole group pipelines; the
        saved suite must be byte-identical to the serial run's."""
        fanned = train_suite(options=RunOptions(jobs=2))
        assert suite_bytes(fanned, tmp_path) == serial_bytes

    def test_single_group_routes_jobs_inward(self, serial_bytes,
                                             tmp_path):
        """With one group there is nothing to overlap at the group
        level; jobs goes to the per-seed fan-out instead — still
        byte-identical per group."""
        fanned = train_suite(groups=GROUPS[:1],
                             options=RunOptions(jobs=2))
        fanned_bytes = suite_bytes(fanned, tmp_path)
        name = f"{GROUPS[0].name}.json"
        assert fanned_bytes[name] == serial_bytes[name]

    def test_group_fault_retried_in_parent(self, serial_bytes, tmp_path):
        """A group pipeline that dies executor-side is retrained in the
        parent; the suite still comes out byte-identical."""
        flaky = FlakyExecutor(fail_submissions={0})
        fanned = train_suite(options=RunOptions(jobs=2), executor=flaky)
        assert flaky.count == len(GROUPS)
        assert suite_bytes(fanned, tmp_path) == serial_bytes
