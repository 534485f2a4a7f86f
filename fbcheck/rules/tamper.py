"""FB-TAMPER: unverified medium bytes must not cross the store boundary.

ForkBase's headline guarantee (PAPER.md §II) is that every byte served to
an application is covered by a content digest.  The syntactic rules can
enforce *where* verification code lives but not *whether a given byte
passed through it* — that is a dataflow property.  This rule runs the
taint engine (:mod:`fbcheck.dataflow`) over every function in the store,
cluster and vcs packages:

- bytes from ``os.read``/file ``.read()``/mmap windows/transport receive
  (and ``_fetch``, the raw-store contract) are **tainted**;
- ``Chunk.verify()``, a ``zlib.crc32``/digest comparison, or a
  ``diagnose_record``-style call **sanitizes**;
- **returning or yielding** tainted bytes from a *public* function (the
  store boundary), or feeding them to a **decode** call anywhere, is the
  violation.

Allowlist detail: the enclosing function name.  Use it for sanctioned
trust boundaries (e.g. ``ChunkStore.get`` honouring an explicit
``verify_reads=False`` opt-out), never for convenience.
"""

from __future__ import annotations

from typing import Iterator

from fbcheck.cfg import build_cfgs
from fbcheck.config import Config
from fbcheck.core import ModuleFile, Rule, Violation, register
from fbcheck.dataflow import TaintAnalysis, TaintSpec
from fbcheck.summaries import compute_summaries


def spec_from_config(config: Config) -> TaintSpec:
    """The live taint policy from :mod:`fbcheck.config`."""
    return TaintSpec(
        sources=config.tamper_sources,
        source_suffixes=config.tamper_source_suffixes,
        sanitizer_methods=config.tamper_sanitizer_methods,
        sanitizer_calls=config.tamper_sanitizer_calls,
        compare_tokens=config.tamper_compare_tokens,
        propagator_calls=config.tamper_propagators,
        carrier_attrs=config.tamper_carrier_attrs,
        decode_calls=config.tamper_decode_calls,
        trusting_constructors=config.tamper_trusting_constructors,
    )


@register
class TamperTaintRule(Rule):
    """Taint tracking from unverified media to the store boundary."""

    rule_id = "FB-TAMPER"
    summary = "disk/mmap/transport bytes must pass Chunk.verify/CRC/digest before export or decode"

    def applies_to(self, path: str) -> bool:
        return path.startswith(tuple(self.config.flow_tamper_paths))

    def check(self, module: ModuleFile) -> Iterator[Violation]:
        spec = spec_from_config(self.config)
        summaries = compute_summaries(module, spec)
        for func, cfg, owner in build_cfgs(module).values():
            result = TaintAnalysis(cfg, spec, summaries=summaries).run()
            if not result.events:
                continue
            qualname = f"{owner.name}.{func.name}" if owner else func.name
            public = not func.name.startswith("_")
            for event in result.events:
                if event.kind in ("return", "yield") and not public:
                    # Private helpers hand tainted bytes to callers inside
                    # the module; the summary mechanism tracks them there.
                    continue
                if self.allowed(module, func.name) or self.allowed(module, qualname):
                    continue
                if event.kind == "decode":
                    message = (
                        f"{qualname}() decodes unverified bytes via {event.detail}() "
                        "before any tamper-evidence check (Chunk.verify / CRC / digest compare)"
                    )
                else:
                    message = (
                        f"public {qualname}() {event.kind}s unverified bytes "
                        f"({event.detail}) without a tamper-evidence check "
                        "(Chunk.verify / CRC / digest compare)"
                    )
                yield self.violation(module, event.line, message)
