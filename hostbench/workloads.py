"""The benchmark's workloads: seeded inputs, set-up, one timed run, checks.

Every workload follows one shape.  :meth:`inputs` turns a seed (and
one of the workload's ``variants``) into plain data - the only thing
the program under test receives.
:meth:`setup` builds a ready-to-run system from those inputs (timed as
``setup_s``).  :meth:`step` does one short piece of the measured work
(each timed for ``work_per_s``); ``steps`` of them make one round.
:meth:`check` inspects the simulated outputs of a round and returns an
:class:`Outcome`: the work done, the operations attempted and failed,
any problems found, and a digest of the outputs.  One set of inputs
always yields the same digest, so repeated rounds, the traced round and
the pinned value for the default seed can all be compared.  Steps are
short (a tenth of a second to a second) so that the host-speed
reference in ``reference.py`` is sampled between them.

Simulated statistics (cycles, retired instructions, fleet health) are
checked here as outputs of the model.  They are never reported as
performance: every performance figure is host wall-clock time.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

from hostbench.metrics import fleet_counters, kernel_counters
from repro.core.system import TyTAN
from repro.fleet import Fleet, FleetConfig, ShardConfig, StoreConfig
from repro.net.fabric import FabricProfile
from repro.rtos.task import INBOX_BYTES, NativeCall
from repro.sim.workloads import periodic_sender_source

MASK32 = 0xFFFFFFFF


class Outcome:
    """What one run of a workload did, and whether it was right."""

    def __init__(self, work, attempted, failed, digest, problems):
        #: Units of work done (devices attested, instructions retired).
        self.work = work
        #: Operations attempted and failed (devices, or tasks).
        self.attempted = attempted
        self.failed = failed
        #: SHA-256 of the canonical simulated outputs.
        self.digest = digest
        #: Human-readable descriptions of every failed check.
        self.problems = problems


def _digest(material):
    text = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- fleet ------------------------------------------------------------------


class FleetCfaLossy:
    """A CFA fleet with hijacked rogues over a lossy, reordering link.

    Each benchmark round runs the protocol once: ``Fleet(...)``
    construction is the set-up (fabric, shards, per-device key
    registry), and its one step, ``Fleet.run()``, attests every genuine
    device and quarantines every rogue.  The serial executor keeps the
    run on one host core.

    How many challenges the lossy link costs depends on its random
    draws: over 200 devices, challenges per device range 1.21-1.30
    between seeds, and host time follows.  So one seed yields
    ``variants`` fleets, and the rounds of a run take them in turn.
    """

    name = "fleet-cfa-lossy"
    work_name = "attested_per_s"
    work_unit = "devices/s"
    #: Set-ups made per round (the last one is run).
    setup_repeats = 1
    steps = 1
    #: Distinct inputs one seed yields; round ``i`` runs variant
    #: ``i % variants``.
    variants = 8

    def __init__(self, devices=200, workdir=".hostbench"):
        self.devices = devices
        self.workdir = workdir
        self._runs = 0

    def inputs(self, seed, variant=0):
        fleet_seed = seed * self.variants + variant
        rng = random.Random("fleet-%d" % fleet_seed)
        rogues = max(1, self.devices // 100)
        return {
            "seed": fleet_seed,
            "devices": self.devices,
            "rogue": sorted(rng.sample(range(self.devices), rogues)),
        }

    def setup(self, inputs):
        os.makedirs(self.workdir, exist_ok=True)
        self._runs += 1
        path = os.path.join(
            self.workdir, "store-%d-%d.jsonl" % (os.getpid(), self._runs)
        )
        if os.path.exists(path):
            os.remove(path)
        return Fleet(
            FleetConfig(
                devices=inputs["devices"],
                seed=inputs["seed"],
                workers=0,
                cfa=True,
                rogue=inputs["rogue"],
                rogue_mode="hijack",
            ),
            shards=ShardConfig(8),
            fabric=FabricProfile(
                latency_us=200, jitter_us=50, loss=0.1, duplicate=0.02, reorder=0.05
            ),
            store=StoreConfig("jsonl", path=path),
        )

    def step(self, fleet):
        return fleet.run()

    def counters(self, fleet, results):
        return fleet_counters(fleet, results[0])

    def check(self, inputs, fleet, results):
        (result,) = results
        path = fleet.store.path
        fleet.store.close()
        os.remove(path)
        statuses = fleet.service.statuses()
        reasons = {
            entry["device"]: entry["reason"]
            for entry in result.health["quarantined_devices"]
        }
        rogue = set(inputs["rogue"])
        problems = []
        for device_id in range(inputs["devices"]):
            if device_id in rogue:
                if reasons.get(device_id) != "cfa-hijacked":
                    problems.append(
                        "rogue %d not quarantined as cfa-hijacked (%s)"
                        % (device_id, reasons.get(device_id, statuses.get(device_id)))
                    )
            elif statuses.get(device_id) != "attested":
                problems.append(
                    "genuine %d is %s" % (device_id, statuses.get(device_id))
                )
        text = result.to_json().replace(json.dumps(path)[1:-1], "<store>")
        return Outcome(
            work=result.health["attested"],
            attempted=inputs["devices"],
            failed=len(problems),
            digest=hashlib.sha256(text.encode("utf-8")).hexdigest(),
            problems=problems,
        )


# -- kernels ------------------------------------------------------------------

#: ALU loop: 500 rounds of add/xor/shift per pass, then publish
#: (result, passes).  ``.space`` keeps the data off the code's
#: 256-byte snoop granule, so stores never invalidate translations.
ALU_SOURCE = """
.section .text
.global start
start:
    movi eax, %(a0)d
    movi ebx, 0
    movi esi, result
outer:
    movi ecx, 500
inner:
    addi eax, %(k1)d
    xori eax, %(k2)d
    shli eax, 1
    shri eax, 1
    subi ecx, 1
    cmpi ecx, 0
    jnz inner
    addi ebx, 1
    st [esi], eax
    st [esi+4], ebx
    jmp outer
.section .data
    .space 256
result:
    .word 0, 0
"""

#: Load/store loop: add ``k1`` to each of 32 words of its own data
#: page per pass, then publish the pass count.
MEM_SOURCE = """
.section .text
.global start
start:
    movi ebx, 0
outer:
    movi esi, arr
    movi ecx, 32
loop:
    ld eax, [esi]
    addi eax, %(k1)d
    st [esi], eax
    addi esi, 4
    subi ecx, 1
    cmpi ecx, 0
    jnz loop
    addi ebx, 1
    movi edi, passes
    st [edi], ebx
    jmp outer
.section .data
    .space 256
arr:
    .word %(words)s
passes:
    .word 0
"""

#: Call/ret loop (enrolled with CFA): 50 calls per pass, then
#: publish (result, passes).
CALL_SOURCE = """
.section .text
.global start
start:
    movi eax, %(a0)d
    movi ebx, 0
    movi esi, result
outer:
    movi ecx, 50
loop:
    call work
    subi ecx, 1
    cmpi ecx, 0
    jnz loop
    addi ebx, 1
    st [esi], eax
    st [esi+4], ebx
    jmp outer
work:
    addi eax, %(k1)d
    xori eax, %(k2)d
    ret
.section .data
    .space 256
result:
    .word 0, 0
"""

#: Spinner whose counter shares the code's 256-byte snoop granule.
SPIN_SOURCE = """
.section .text
.global start
start:
    movi esi, counter
again:
    ld eax, [esi]
    addi eax, 1
    st [esi], eax
    jmp again
.section .data
    .space %(pad)d
counter:
    .word 0
"""

#: Offset of SPIN_SOURCE's ``.data`` (25 bytes of code, word-aligned).
SPIN_DATA_OFFSET = 28
#: Bytes each spinner allocates (image + inbox + stack): a multiple of
#: the snoop granule.
SPIN_FOOTPRINT = 1024


def _alu_expected(x, k1, k2, rounds):
    """ALU_SOURCE's ``eax`` after ``rounds`` inner-loop rounds."""
    for _ in range(rounds):
        x = (((((x + k1) & MASK32) ^ k2) << 1) & MASK32) >> 1
    return x


def _call_expected(x, k1, k2, calls):
    """CALL_SOURCE's ``eax`` after ``calls`` calls of ``work``."""
    for _ in range(calls):
        x = ((x + k1) & MASK32) ^ k2
    return x


def _tail_words(system, task, count):
    """The last ``count`` words of a task's image (its published results)."""
    base = task.base + len(task.image.blob) - 4 * count
    return [
        system.kernel.memory.read_u32(base + 4 * i, actor=task.base) for i in range(count)
    ]


class _Kernel:
    """Shared shape of the kernel workloads: boot, load, then run
    ``cycles`` in ``steps`` equal ``TyTAN.run(max_cycles=...)`` calls
    that continue one simulation."""

    work_name = "insns_per_s"
    work_unit = "insns/s"
    #: Host time does not depend on the seeded values, so one seed
    #: yields one set of inputs.
    variants = 1
    #: Booting is cheap, so each round boots several times for a steadier
    #: ``setup_s`` median; the last system booted is the one run.
    setup_repeats = 4

    def __init__(self, cycles, steps):
        self.cycles = cycles
        self.steps = steps

    def step(self, state):
        return state["system"].run(max_cycles=self.cycles // self.steps)

    def counters(self, state, results):
        return kernel_counters(state["system"])

    def _common(self, system, results, tasks, material, problems):
        """Fault checks every kernel workload shares, then the outcome.

        ``problems`` holds ``(task name or None, text)`` pairs; a
        problem naming no task fails every task of the run.
        """
        faulted = {task.name: repr(fault) for task, fault in system.kernel.faulted.items()}
        fault_log = [repr(entry) for entry in system.platform.mpu.fault_log]
        problems.extend((name, "faulted: " + fault) for name, fault in sorted(faulted.items()))
        if fault_log:
            problems.append((None, "EA-MPU fault log has %d entries" % len(fault_log)))
        for result in results:
            if result.stop_reason != "max-cycles":
                problems.append((None, "run stopped early: %r" % (result,)))
        retired = sum(result.retired for result in results)
        failed = {name for name, _ in problems}
        material.update(
            retired=retired,
            cycles=sum(result.cycles for result in results),
            faulted=faulted,
            mpu_fault_log=fault_log,
        )
        return Outcome(
            work=retired,
            attempted=len(tasks),
            failed=len(tasks) if None in failed else len(failed),
            digest=_digest(material),
            problems=["%s: %s" % (name or "run", text) for name, text in problems],
        )


#: Cycles between the sender's IPC messages.
SEND_PERIOD_CYCLES = 4_000


class KernelMix(_Kernel):
    """Four equal-priority secure tasks and a native IPC receiver.

    An ALU loop, a load/store loop over its own data page, a call/ret
    loop under control-flow attestation, and a periodic sender issuing
    secure IPC to a native receiver service.
    """

    name = "kernel-mix"

    def __init__(self, cycles=1_280_000, steps=20):
        super().__init__(cycles, steps)

    def inputs(self, seed, variant=0):
        rng = random.Random("kernel-mix-%d" % seed)

        def const():
            return rng.randrange(1, 1 << 12)

        return {
            "alu": {"a0": rng.randrange(1 << 16), "k1": const(), "k2": const()},
            "mem": {"k1": const(), "words": [rng.randrange(1 << 16) for _ in range(32)]},
            "call": {"a0": rng.randrange(1 << 16), "k1": const(), "k2": const()},
        }

    def setup(self, inputs):
        system = TyTAN()
        received = []

        def receiver_body(kernel, task):
            while True:
                message = system.ipc.read_inbox(task)
                if message is not None:
                    received.append(message)
                yield NativeCall.delay_cycles(2_000)

        receiver = system.create_service_task("receiver", 1, receiver_body)
        receiver_id = system.rtm.register_service(receiver, "receiver")[:8]
        alu = system.load_source(ALU_SOURCE % inputs["alu"], "alu")
        mem_args = dict(inputs["mem"], words=", ".join(map(str, inputs["mem"]["words"])))
        mem = system.load_source(MEM_SOURCE % mem_args, "mem")
        call = system.load_source(CALL_SOURCE % inputs["call"], "call")
        system.enable_cfa(call)
        sender = system.load_source(
            periodic_sender_source(
                system.platform.pedal_base, receiver_id, period_cycles=SEND_PERIOD_CYCLES
            ),
            "sender",
        )
        return {
            "system": system,
            "tasks": [alu, mem, call, sender],
            "received": received,
        }

    def check(self, inputs, state, results):
        system = state["system"]
        alu, mem, call, sender = state["tasks"]
        problems = []

        alu_x, alu_passes = _tail_words(system, alu, 2)
        a = inputs["alu"]
        done = _alu_expected(a["a0"], a["k1"], a["k2"], 500 * alu_passes)
        # A preemption can land between the two result stores.
        if alu_passes < 1 or alu_x not in (
            done,
            _alu_expected(done, a["k1"], a["k2"], 500),
        ):
            problems.append(("alu", "result %#x after %d passes" % (alu_x, alu_passes)))

        words = _tail_words(system, mem, 33)
        passes = words.pop()
        m = inputs["mem"]
        for index, (got, start) in enumerate(zip(words, m["words"])):
            if got not in (
                (start + m["k1"] * passes) & MASK32,
                (start + m["k1"] * (passes + 1)) & MASK32,
            ):
                problems.append(("mem", "word %d is %#x after %d passes" % (index, got, passes)))
                break
        if passes < 1:
            problems.append(("mem", "no pass completed"))

        call_x, call_passes = _tail_words(system, call, 2)
        c = inputs["call"]
        done = _call_expected(c["a0"], c["k1"], c["k2"], 50 * call_passes)
        if call_passes < 1 or call_x not in (
            done,
            _call_expected(done, c["k1"], c["k2"], 50),
        ):
            problems.append(("call", "result %#x after %d passes" % (call_x, call_passes)))

        received = state["received"]
        sender_id = sender.identity[:8]
        if not received:
            problems.append(("sender", "no IPC message delivered"))
        elif any(sid != sender_id for _, sid in received):
            problems.append(("sender", "message with a foreign sender identity"))

        recorder = system.cfa.recorder_for("call")
        material = {
            "counters": {
                "alu": [alu_x, alu_passes],
                "mem": words + [passes],
                "call": [call_x, call_passes],
            },
            "ipc_messages": len(received),
            "ipc_words": [list(w) for w, _ in received],
            "cfa_path_digest": recorder.path_digest().hex(),
        }
        return self._common(system, results, state["tasks"], material, problems)


class KernelSharedPage(_Kernel):
    """Equal-priority spinners whose counter shares their code granule.

    Every store to the counter lands on the code's 256-byte snoop
    granule, so it invalidates the translation that issued it.
    """

    name = "kernel-shared-page"
    spinners = 2

    def __init__(self, cycles=20_000, steps=10):
        super().__init__(cycles, steps)

    def inputs(self, seed, variant=0):
        rng = random.Random("kernel-shared-page-%d" % seed)
        # Counter offset inside the granule: after the code, before 256.
        slots = (256 - SPIN_DATA_OFFSET - 4) // 4 + 1
        return {"pad": 4 * rng.randrange(slots)}

    def setup(self, inputs):
        system = TyTAN()
        source = SPIN_SOURCE % inputs
        tasks = []
        for index in range(self.spinners):
            name = "spin%d" % index
            image = system.build_image(source, name)
            # Size the stack so each task's allocation is exactly
            # SPIN_FOOTPRINT bytes: every spinner then starts on a
            # granule boundary and its counter sits at the seeded
            # offset inside the granule that holds its code.
            image.stack_size = SPIN_FOOTPRINT - len(image.blob) - INBOX_BYTES
            tasks.append(system.load_task(image, name=name))
        return {"system": system, "tasks": tasks}

    def check(self, inputs, state, results):
        system = state["system"]
        tasks = state["tasks"]
        problems = []
        counts = []
        for task in tasks:
            offset = len(task.image.blob) - 4
            if (task.base + offset) >> 8 != task.base >> 8:
                problems.append((task.name, "counter is off the code granule"))
            (count,) = _tail_words(system, task, 1)
            counts.append(count)
            if count < 1:
                problems.append((task.name, "no progress"))
        # Each spinner retires movi, then ld/addi/st per count with a
        # jmp between counts, and may stop up to two insns past a store.
        low = 4 * sum(counts)
        retired = sum(result.retired for result in results)
        if not low <= retired <= low + 3 * len(tasks):
            problems.append((None, "retired %d does not match counters %s" % (retired, counts)))
        material = {"counters": counts, "pad": inputs["pad"]}
        return self._common(system, results, tasks, material, problems)


WORKLOADS = {
    cls.name: cls for cls in (FleetCfaLossy, KernelMix, KernelSharedPage)
}
