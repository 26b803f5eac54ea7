"""Tests for dynamic loading and the RTM (Tables 4, 5, 7 behaviours)."""

import pytest

from repro import cycles
from repro.core.identity import identity_of_image
from repro.errors import MPUSlotError
from repro.fleet.device import fleet_task_image
from repro.rtos.task import NativeCall
from repro.sim.workloads import synthetic_image

from conftest import COUNTER_TASK, read_counter


class TestLoading:
    def test_load_places_and_relocates(self, system):
        image = system.build_image(COUNTER_TASK, "t")
        task = system.load_task(image, secure=True)
        # Relocation really happened: each site holds original + base.
        for offset in image.relocations:
            loaded = system.kernel.memory.read_u32(
                task.base + offset, actor=task.base
            )
            original = int.from_bytes(
                image.blob[offset : offset + 4], "little"
            )
            assert loaded == original + task.base

    def test_loaded_task_runs(self, system):
        task = system.load_source(COUNTER_TASK, "t", secure=True)
        system.run(max_cycles=160_000)
        assert read_counter(system, task) >= 4
        assert not system.kernel.faulted

    def test_secure_task_measured_normal_not(self, system):
        image = system.build_image(COUNTER_TASK, "sec")
        secure = system.load_task(image, secure=True)
        image2 = system.build_image(COUNTER_TASK, "norm")
        normal = system.load_task(image2, secure=False)
        assert secure.identity is not None
        assert normal.identity is None

    def test_normal_task_can_opt_into_measurement(self, system):
        image = system.build_image(COUNTER_TASK, "norm")
        task = system.load_task(image, secure=False, measure=True)
        assert task.identity == identity_of_image(image)

    def test_breakdown_has_all_steps(self, system):
        system.load_task(system.build_image(COUNTER_TASK, "t"), secure=True)
        breakdown = system.loader.last_breakdown
        for step in ("allocate", "copy", "relocation", "stack", "eampu", "rtm", "schedule", "overall"):
            assert step in breakdown
        assert breakdown["overall"] == sum(
            breakdown[k]
            for k in ("allocate", "copy", "relocation", "stack", "eampu", "rtm", "schedule")
        )

    def test_normal_load_skips_rtm_cost(self, system):
        image = synthetic_image(blocks=8, relocations=2)
        system.load_task(image, secure=False, name="n")
        assert system.loader.last_breakdown["rtm"] == 0

    def test_out_of_mpu_slots(self, system):
        """Dynamic slots are finite; exhausting them fails cleanly."""
        capacity = len(system.platform.mpu.free_slots())
        loaded = []
        with pytest.raises(MPUSlotError):
            for index in range(capacity + 1):
                loaded.append(
                    system.load_task(
                        synthetic_image(blocks=2, name="fill-%d" % index),
                        secure=True,
                    )
                )
        assert len(loaded) == capacity
        assert system.platform.mpu.free_slots() == []

    def test_unload_frees_everything(self, system):
        image = system.build_image(COUNTER_TASK, "t")
        task = system.load_task(image, secure=True)
        free_before = len(system.platform.mpu.free_slots())
        system.unload_task(task)
        assert len(system.platform.mpu.free_slots()) == free_before + 1
        assert task.tid not in system.kernel.scheduler.tasks
        assert system.rtm.lookup_task(task) is None

    def test_unload_wipes_memory(self, system):
        image = system.build_image(COUNTER_TASK, "t")
        task = system.load_task(image, secure=True)
        base, size = task.base, task.memory_size
        system.unload_task(task)
        assert system.kernel.memory.read_raw(base, size) == bytes(size)

    def test_suspend_resume(self, system):
        task = system.load_source(COUNTER_TASK, "t", secure=True)
        system.run(max_cycles=100_000)
        count_a = read_counter(system, task)
        system.suspend_task(task)
        system.run(max_cycles=100_000)
        assert read_counter(system, task) == count_a
        system.resume_task(task)
        system.run(max_cycles=100_000)
        assert read_counter(system, task) > count_a

    def test_async_load_is_interruptible(self, system):
        """A background load must be preempted by a higher-priority task."""
        from repro.rtos.task import NativeCall

        marks = []

        def periodic(kernel, task):
            deadline = kernel.clock.now + 32_000
            while True:
                marks.append(kernel.clock.now)
                yield NativeCall.charge(500)
                yield NativeCall.delay_until(deadline)
                deadline += 32_000

        system.create_service_task("hf", 5, periodic)
        image = synthetic_image(blocks=120, relocations=8, name="big")
        result = system.load_task_async(image, secure=True, priority=2)
        system.run(until=lambda: result.done)
        assert result.done
        # The periodic task kept running during the load.
        during = [
            m for m in marks if result.started_at <= m <= result.finished_at
        ]
        expected = result.total_cycles // 32_000
        assert during and abs(len(during) - expected) <= 2

    def test_reload_after_fragmentation_same_identity(self, system):
        image = system.build_image(COUNTER_TASK, "t")
        first = system.load_task(image, secure=True)
        identity = first.identity
        base_a = first.base
        pin = system.kernel.allocator.allocate(64)  # fragment the heap
        system.unload_task(first)
        system.kernel.allocator.allocate(128)  # occupy part of the hole
        second = system.load_task(image, secure=True)
        assert second.base != base_a
        assert second.identity == identity


#: RTM identity, hashed blocks and measurement cycles per task, pinned
#: so that no change of the host hash implementation moves what the
#: model reports.
MEASUREMENT_PINS = {
    "fleet-agent": ("5ff58e3393949aa7a2b44c3c0c973ff86906e41e", 3, 197_429),
    "fleet-cfa-agent": ("a3f5ab37fe7faaba365de3e3f2325533d18f7de8", 1, 195_505),
    "counter-task": ("6a17a6d1a45a58fd44a69c32d4f32d3b8ab64a72", 1, 190_067),
}


class TestRTM:
    @pytest.mark.parametrize("label", sorted(MEASUREMENT_PINS))
    def test_measurement_pinned(self, system, label):
        if label == "counter-task":
            task = system.load_source(COUNTER_TASK, secure=True, name="counter")
        else:
            image = fleet_task_image(cfa=label == "fleet-cfa-agent")
            task = system.load_task(image, secure=True, name="fleet-agent")
        identity, blocks, cycle_count = MEASUREMENT_PINS[label]
        assert task.identity.hex() == identity
        assert system.rtm.last_measurement["blocks"] == blocks
        assert system.rtm.last_measurement["cycles"] == cycle_count

    def test_identity_matches_oracle(self, system):
        image = synthetic_image(blocks=4, relocations=3)
        task = system.load_task(image, secure=True)
        assert task.identity == identity_of_image(image)

    def test_identity_position_independent(self, system):
        image = synthetic_image(blocks=4, relocations=3)
        a = system.load_task(image, secure=True, name="a")
        b = system.load_task(image, secure=True, name="b")
        assert a.base != b.base
        assert a.identity == b.identity

    def test_different_images_different_identity(self, system):
        a = system.load_task(synthetic_image(blocks=4, seed=1), secure=True, name="a")
        b = system.load_task(synthetic_image(blocks=4, seed=2), secure=True, name="b")
        assert a.identity != b.identity

    def test_measurement_cost_scales_with_blocks(self, system):
        costs = {}
        for blocks in (1, 2, 4, 8):
            image = synthetic_image(blocks=blocks, name="b%d" % blocks)
            task = system.load_task(image, secure=True)
            costs[blocks] = system.rtm.last_measurement["cycles"]
        # Linear growth, ~MEASURE_PER_BLOCK per extra block.
        delta = costs[2] - costs[1]
        assert abs(delta - cycles.MEASURE_PER_BLOCK) < 200
        assert abs((costs[8] - costs[4]) - 4 * delta) < 800

    def test_registry_lookup(self, system):
        image = synthetic_image(blocks=2, name="x")
        task = system.load_task(image, secure=True)
        entry = system.rtm.lookup64(task.identity[:8], charge=False)
        assert entry is not None and entry.task is task
        assert system.rtm.lookup64(b"\xFF" * 8, charge=False) is None

    def test_local_attestation(self, system):
        image = synthetic_image(blocks=2, name="x")
        task = system.load_task(image, secure=True)
        assert system.local_attest(task) == identity_of_image(image)

    def test_registry_size_tracks_loads(self, system):
        before = system.rtm.registry_size()
        task = system.load_task(synthetic_image(blocks=2, name="x"), secure=True)
        assert system.rtm.registry_size() == before + 1
        system.unload_task(task)
        assert system.rtm.registry_size() == before

    def test_measure_generator_yields_charges(self, system):
        image = synthetic_image(blocks=4, relocations=2)
        task = system.load_task(image, secure=False, name="raw")
        # Re-measure manually through the generator protocol.
        steps = list(system.rtm.measure(task))
        assert all(call.kind == NativeCall.CHARGE for call in steps)
        assert len(steps) > 4  # setup + per-reloc + per-block + finalize
