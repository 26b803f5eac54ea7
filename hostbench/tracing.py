"""Host-time spans around the program's layer boundaries.

:class:`Tracer` wraps public functions and methods of the program from
outside: each call to a wrapped target records one span - a name, a
start and end time from :func:`time.perf_counter`, and the index of
the enclosing span - in flat in-memory lists.  Nothing is written
until :meth:`Tracer.dump`, after the traced run.

A wrapper replaces the target where its callers look it up: a method
on its class, and a module-level function in every ``repro`` module
that bound it by name (``from repro.net.wire import decode_message``
binds a second reference that patching only ``repro.net.wire`` would
miss).  :meth:`Tracer.uninstall` puts every original object back.  A
target that no longer exists is recorded in :attr:`Tracer.absent`
instead of failing the run.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
from array import array
from time import perf_counter

#: (span name, module, attribute path) for every wrapped target.
TARGETS = (
    ("fleet.setup", "repro.fleet.orchestrator", "Fleet.__init__"),
    ("fleet.run", "repro.fleet.orchestrator", "Fleet.run"),
    ("fleet.registry_key", "repro.fleet.device", "device_platform_key"),
    ("fleet.boot", "repro.fleet.snapshot", "DeviceTemplate.__init__"),
    ("fleet.boot", "repro.fleet.snapshot", "DeviceTemplate.fork"),
    ("fleet.pool.handle", "repro.fleet.snapshot", "DevicePool.handle"),
    ("fleet.rekey", "repro.fleet.device", "FleetDevice.rekey"),
    ("fleet.service.poll", "repro.fleet.shards", "ShardedVerifierService.poll"),
    ("fleet.service.handle", "repro.fleet.shards", "ShardedVerifierService.handle"),
    ("fleet.store", "repro.fleet.store", "AttestationStore.note_challenge"),
    ("fleet.store", "repro.fleet.store", "AttestationStore.note_expire"),
    ("fleet.store", "repro.fleet.store", "AttestationStore.note_attested"),
    ("fleet.store", "repro.fleet.store", "AttestationStore.note_quarantined"),
    ("fleet.store", "repro.fleet.store", "AttestationStore.checkpoint"),
    ("fleet.store", "repro.fleet.store", "AttestationStore.flush"),
    ("fleet.store", "repro.fleet.store", "JsonlStore.flush"),
    ("net.fabric", "repro.net.fabric", "NetworkFabric.send"),
    ("net.fabric", "repro.net.fabric", "NetworkFabric.send_batch"),
    ("net.fabric", "repro.net.fabric", "NetworkFabric.advance_to"),
    ("net.fabric", "repro.net.fabric", "NetworkFabric.take_touched"),
    ("net.fabric", "repro.net.fabric", "NetworkFabric.next_delivery"),
    ("net.fabric", "repro.net.fabric", "Endpoint.drain"),
    ("net.wire", "repro.net.wire", "decode_message"),
    ("net.wire", "repro.net.wire", "Challenge.to_bytes"),
    ("net.wire", "repro.net.wire", "Response.to_bytes"),
    ("net.wire", "repro.net.wire", "CfaChallenge.to_bytes"),
    ("net.wire", "repro.net.wire", "CfaResponse.to_bytes"),
    ("crypto.sha1", "repro.crypto.sha1", "SHA1.update"),
    ("crypto.sha1", "repro.crypto.sha1", "SHA1.feed"),
    ("crypto.sha1", "repro.crypto.sha1", "SHA1.compress_pending"),
    ("crypto.sha1", "repro.crypto.sha1", "SHA1.digest"),
    ("crypto.derive_key", "repro.crypto.kdf", "derive_key"),
    ("core.attest", "repro.core.remote_attest", "RemoteAttest.attest"),
    ("core.verify", "repro.core.remote_attest", "Verifier.verify"),
    ("core.load", "repro.core.system", "TyTAN.load_task"),
    ("core.load", "repro.core.system", "TyTAN.load_source"),
    ("core.int_mux", "repro.core.int_mux", "TyTANContextPolicy.save_context"),
    ("core.int_mux", "repro.core.int_mux", "TyTANContextPolicy.restore_context"),
    ("core.int_mux", "repro.core.int_mux", "TyTANContextPolicy.save_context_native"),
    ("core.int_mux", "repro.core.int_mux", "TyTANContextPolicy.restore_context_native"),
    ("core.int_mux", "repro.core.int_mux", "IntMux.save_secure_context"),
    ("core.int_mux", "repro.core.int_mux", "EntryRoutine.enter"),
    ("core.ipc", "repro.core.ipc", "IPCProxy.handle_trap"),
    ("core.ipc", "repro.core.ipc", "IPCProxy.send"),
    ("cfa.evidence", "repro.core.system", "TyTAN.cfa_evidence"),
    ("cfa.verify", "repro.cfa.verifier", "PathVerifier.verify"),
    ("rtos.run", "repro.core.system", "TyTAN.run"),
    ("rtos.service_interrupts", "repro.rtos.kernel", "Kernel.service_interrupts"),
    ("perf.block.compile", "repro.perf.translate", "translate"),
    ("perf.trace.compile", "repro.perf.traces", "build_trace"),
    ("perf.trace.compile", "repro.perf.traces", "translate_trace"),
)

#: Targets whose data argument's length is summed into :attr:`Tracer.bytes`.
BYTE_ARGS = {"SHA1.update", "SHA1.feed"}


class Tracer:
    """Records spans for every installed target; see the module doc."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.names = sorted({name for name, _, _ in targets})
        self._ids = {name: index for index, name in enumerate(self.names)}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        #: Bytes passed to :data:`BYTE_ARGS` targets, per span name.
        self.bytes = dict.fromkeys(self.names, 0)
        #: ``module:attribute`` of every target that could not be found.
        self.absent = []
        self._stack = []
        self._patches = []  # (owner, attribute, original, was_own)

    # -- install / uninstall -------------------------------------------------

    def install(self):
        """Wrap every target; missing ones go to :attr:`absent`."""
        for name, module_name, path in self.targets:
            try:
                module = importlib.import_module(module_name)
                owner, attribute = module, path
                if "." in path:
                    class_name, attribute = path.split(".", 1)
                    owner = getattr(module, class_name)
                original = getattr(owner, attribute)
            except (ImportError, AttributeError):
                self.absent.append("%s:%s" % (module_name, path))
                continue
            wrapper = self._wrap(original, self._ids[name], path in BYTE_ARGS)
            if owner is module:
                for alias in self._aliases(original):
                    self._patch(alias, attribute, original, wrapper)
            else:
                self._patch(owner, attribute, original, wrapper)
        return self

    def uninstall(self):
        """Restore every patched attribute to its original object."""
        while self._patches:
            owner, attribute, original, was_own = self._patches.pop()
            if was_own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    @staticmethod
    def _aliases(function):
        """Every loaded ``repro`` module binding ``function`` by name."""
        return [
            module
            for module_name, module in list(sys.modules.items())
            if module is not None
            and (module_name == "repro" or module_name.startswith("repro."))
            and getattr(module, function.__name__, None) is function
        ]

    def _patch(self, owner, attribute, original, wrapper):
        was_own = attribute in vars(owner)
        self._patches.append((owner, attribute, original, was_own))
        setattr(owner, attribute, wrapper)

    def _wrap(self, function, name_id, count_bytes):
        stack = self._stack
        name_ids, starts, ends, parents = self.name_ids, self.starts, self.ends, self.parents
        byte_totals = self.bytes
        span_name = self.names[name_id]

        def traced(*args, **kwargs):
            index = len(name_ids)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            if count_bytes and len(args) > 1:
                byte_totals[span_name] += len(args[1])
            stack.append(index)
            starts.append(perf_counter())
            try:
                return function(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()

        return functools.update_wrapper(traced, function)

    # -- analysis -------------------------------------------------------------

    def __len__(self):
        return len(self.name_ids)

    def summary(self):
        """Per span name: outermost calls, total and self seconds.

        A span nested inside another span of the same name (a wrapped
        method calling another wrapped method of its layer) is folded
        into the outer one, so nothing is counted twice.  Self time is
        a span's duration minus the durations of its direct children (the
        self-time metrics read spans that never nest in themselves).
        """
        count = len(self.name_ids)
        child = [0.0] * count
        durations = [self.ends[i] - self.starts[i] for i in range(count)]
        for index in range(count):
            parent = self.parents[index]
            if parent >= 0:
                child[parent] += durations[index]
        stats = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for index in range(count):
            name_id = self.name_ids[index]
            parent = self.parents[index]
            while parent >= 0 and self.name_ids[parent] != name_id:
                parent = self.parents[parent]
            if parent >= 0:
                continue  # folded into an enclosing span of the same name
            entry = stats[self.names[name_id]]
            entry["calls"] += 1
            entry["s"] += durations[index]
            entry["self_s"] += durations[index] - child[index]
        return stats

    def within(self, name, ancestor):
        """Seconds in outermost ``name`` spans that run inside ``ancestor``."""
        name_id, ancestor_id = self._ids[name], self._ids[ancestor]
        total = 0.0
        for index in range(len(self.name_ids)):
            if self.name_ids[index] != name_id:
                continue
            parent = self.parents[index]
            inside = False
            while parent >= 0:
                if self.name_ids[parent] == name_id:
                    break
                inside = inside or self.name_ids[parent] == ancestor_id
                parent = self.parents[parent]
            else:
                if inside:
                    total += self.ends[index] - self.starts[index]
        return total

    def dump(self, path, meta):
        """Write every span (gzip'd JSON) with ``meta`` alongside."""
        origin = self.starts[0] if len(self) else 0.0
        spans = [
            [self.names[n], round(s - origin, 9), round(e - origin, 9), p]
            for n, s, e, p in zip(self.name_ids, self.starts, self.ends, self.parents)
        ]
        with gzip.open(path, "wt", encoding="utf-8") as out:
            json.dump(
                {"meta": meta, "absent": self.absent, "fields": ["name", "start_s", "end_s", "parent"], "spans": spans},
                out,
            )
