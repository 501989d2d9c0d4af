"""Compositional SVA factory: per-module proofs with assume-guarantee
interfaces (ROADMAP item 5, RealityCheck-style).

Monolithic synthesis instantiates every monitor over the flattened
design, so each SVA pays for the whole multi-core netlist and N
identical cores cost N times one core.  :class:`ComposedSvaFactory`
instead builds each problem over the *module netlist* of the instance
that owns the referenced state:

* Core-local templates (A0/A1/ordering/Req-Snd/attribution) run on the
  standalone ``vscale_core`` elaboration with boundary inputs free.
  Free inputs over-approximate every behavior the composed design can
  drive, so module-level PROVEN verdicts are sound for the whole
  design.
* The one place the over-approximation bites — A1 forward progress
  depends on the arbiter eventually granting the core's memory request
  — is closed with an assume-guarantee pair: module problems *assume*
  bounded service of the request interface, and a matching
  ``interface_service`` obligation *asserts* the same bound on the
  arbiter's module netlist (the guarantee).  The round-robin arbiter
  grants one requester per cycle, so a core waits at most NCORES-1
  consecutive cycles; the assumption uses the bound NCORES, which the
  guarantee implies.
* Interface templates that genuinely span modules (Req-Rec, Req-Proc,
  memory functional correctness) delegate to a plain full-netlist
  factory — composition never weakens them.

Every problem carries its module netlist as :attr:`SafetyProblem.base`
(``share_base``): the engine bit-blasts each module once and extends
per monitor, then unrolls only the bit-level cone of the problem's
assume, assert and reset wires, so a problem costs what its property
observes rather than the whole module.  The scheduler dedupes
isomorphic problems by fingerprint, so N identical core instances
cost one proof.  Problem
names are *canonicalized* (core index and concrete state collapsed to
the stage/kind the monitor actually observes) because monitor wire
names embed the problem name and would otherwise break fingerprint
equality.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from ..core.metadata import DesignMetadata
from ..errors import SynthesisError
from ..formal import SafetyProblem
from ..netlist import Const, HierNetlist
from .monitor import MonitorContext
from .templates import EventSpec, InstrSpec, SvaFactory


class ComposedSvaFactory(SvaFactory):
    """Builds module-scoped :class:`SafetyProblem` instances."""

    share_base = True

    def __init__(self, hier: HierNetlist, metadata: DesignMetadata):
        if not metadata.interfaces:
            raise SynthesisError(
                "compositional synthesis needs a request-response interface "
                "(the assume-guarantee pair is phrased on it)")
        #: full-design factory for the templates that span modules
        self.full = SvaFactory(hier.flat, metadata)
        self.hier = hier
        # The core instance prefix template comes from the IFR path
        # ("core_gen[{core}].core.inst_DX" -> "core_gen[{core}].core.").
        if "." not in metadata.ifr:
            raise SynthesisError(
                "compositional synthesis needs a hierarchical IFR path "
                "(a flat design has no module boundary to cut on)")
        self._core_prefix_t = metadata.ifr.rsplit(".", 1)[0] + "."
        core_inst = hier.instance_at(
            metadata.core_signal(self._core_prefix_t, 0))
        #: service bound W for the assume-guarantee pair: the round-robin
        #: arbiter serves each requester within #requesters cycles
        self.service_bound = len(hier.instances_of(core_inst.module))
        arb_inst = hier.find_instance(["core_req_valid", "core_req_ready"])
        if arb_inst is None:
            raise SynthesisError(
                "no arbiter instance (ports core_req_valid/core_req_ready) "
                "found: the bounded-service assumption would have no "
                "guarantee obligation backing it")
        self.arbiter = hier.module_netlist(arb_inst)
        super().__init__(hier.module_netlist(core_inst),
                         self._localized_metadata(metadata))

    # ------------------------------------------------------------------
    # Metadata / name localization
    # ------------------------------------------------------------------
    def _localized_metadata(self, md: DesignMetadata) -> DesignMetadata:
        """Rewrite the core-side metadata to module-local signal names
        (strip the instance prefix; resource-side names are untouched —
        module problems never reference them)."""
        prefix = self._core_prefix_t

        def strip(template: str) -> str:
            if template.startswith(prefix):
                return template[len(prefix):]
            return template

        iface = md.interfaces[0]
        local_iface = replace(
            iface,
            core_req_valid=strip(iface.core_req_valid),
            core_req_sent=strip(iface.core_req_sent),
            core_req_write=strip(iface.core_req_write),
            core_req_addr=strip(iface.core_req_addr),
            core_req_data=strip(iface.core_req_data))
        return replace(
            md,
            ifr=strip(md.ifr),
            pcr=[strip(p) for p in md.pcr],
            im_pc=strip(md.im_pc),
            interfaces=[local_iface],
            shared_prefixes=[])

    def _localize(self, state: str, core: int) -> str:
        prefix = self._core_prefix_t.format(core=core)
        if state.startswith(prefix):
            return state[len(prefix):]
        return state

    # ------------------------------------------------------------------
    # Canonicalized core-module templates
    # ------------------------------------------------------------------
    def never_updates(self, spec: InstrSpec, event: EventSpec,
                      name: Optional[str] = None) -> SafetyProblem:
        # The remote A0 monitor observes only the interface request
        # valid (neither the state nor its kind), so every remote state
        # collapses onto ONE canonical problem per encoding; local A0
        # states get their module-local name.
        if event.remote:
            canon = EventSpec("remote", event.stage, event.kind)
        else:
            canon = EventSpec(self._localize(event.state, spec.core),
                              event.stage, event.kind)
        return super().never_updates(spec, canon, name)

    def _canon_order_event(self, event: EventSpec) -> EventSpec:
        # Ordering monitors key on (stage, kind) only: local events
        # observe the stage's PCR, remote events the interface.
        if event.remote:
            return EventSpec(event.kind, event.stage, event.kind)
        return EventSpec(f"s{event.stage}", event.stage, event.kind)

    def ordering(self, spec0: InstrSpec, event0: EventSpec,
                 spec1: InstrSpec, event1: EventSpec,
                 reference: Optional[str] = "po",
                 inverted: bool = False,
                 name: Optional[str] = None) -> SafetyProblem:
        return super().ordering(
            spec0, self._canon_order_event(event0),
            spec1, self._canon_order_event(event1),
            reference=reference, inverted=inverted, name=name)

    def attribution(self, core: int, name: Optional[str] = None) -> SafetyProblem:
        # Decoder attribution is core-internal: one canonical problem
        # serves every core instance.
        return super().attribution(0, name=name or "attr[core]")

    # ------------------------------------------------------------------
    # Assume-guarantee pair for the request interface
    # ------------------------------------------------------------------
    def _module_assumes(self, ctx: MonitorContext) -> None:
        """Assumption side: the arbiter serves a pending request within
        ``service_bound`` cycles (discharged as the matching
        :meth:`interface_service` guarantee on the arbiter module)."""
        iface = self.iface
        valid = self.md.core_signal(iface.core_req_valid, 0)
        sent = self.md.core_signal(iface.core_req_sent, 0)
        unserved = ctx.and_(valid, ctx.not_(sent))
        width = max(2, self.service_bound.bit_length() + 1)
        # Reset cycles don't count against the bound: the arbiter's
        # priority pointer is frozen during reset, so the guarantee
        # (and hence this assumption) is phrased over non-reset cycles.
        clear = ctx.or_(ctx.not_(unserved), ctx.reset)
        wait = ctx.counter(enable=unserved, clear=clear,
                           width=width, hint="svc")
        ctx.add_assume(ctx.lt(wait, Const(width, self.service_bound)))

    def interface_service(self, core: int,
                          name: Optional[str] = None) -> SafetyProblem:
        """Guarantee side, proven on the arbiter module netlist: core
        ``core``'s request is never left unserved ``service_bound``
        consecutive cycles, even with adversarial competing requests
        (free inputs).  Refutation is a real composition bug — the
        assumption in the core-module problems would be unsound."""
        ctx = MonitorContext(self.arbiter, name or f"iface-service[c{core}]",
                             reset=self.md.reset, share_base=True)
        valid = ctx.slice_("core_req_valid", core, core)
        ready = ctx.slice_("core_req_ready", core, core)
        unserved = ctx.and_(valid, ctx.not_(ready))
        width = max(2, self.service_bound.bit_length() + 1)
        # Clear during reset, matching the assumption in
        # :meth:`_module_assumes`: while reset holds rr_ptr frozen the
        # arbiter may grant the same core repeatedly, and in the
        # composed design no core issues requests during reset anyway.
        clear = ctx.or_(ctx.not_(unserved), ctx.reset)
        streak = ctx.counter(enable=unserved, clear=clear,
                             width=width, hint="svc")
        ctx.add_assert(ctx.lt(streak, Const(width, self.service_bound)))
        return ctx.problem()

    # ------------------------------------------------------------------
    # Cross-module templates: delegate to the full design
    # ------------------------------------------------------------------
    def req_rec(self, core: int, name: Optional[str] = None) -> SafetyProblem:
        return self.full.req_rec(core, name)

    def req_proc(self, core: int, name: Optional[str] = None) -> SafetyProblem:
        return self.full.req_proc(core, name)

    def functional_correctness(self, name: Optional[str] = None) -> SafetyProblem:
        return self.full.functional_correctness(name)
