"""The audit package: control-plane audit log + adversarial neutrality
auditor.

:mod:`repro.audit.log` is the append-only control-plane record (grants,
denials, revocations) the cookie server writes.

:mod:`repro.audit.auditor` is the record/replay differential harness
that verifies the data plane enforces exactly the advertised policy, and
:mod:`repro.audit.personas` the malicious operators it must catch;
:mod:`repro.audit.stats` holds the paired statistical tests.

Only the log is imported eagerly: the auditor pulls in the whole service
stack, and ``repro.core`` imports this package for the compat shim, so
the heavyweight modules load lazily via module ``__getattr__``.
"""

from .log import AuditEvent, AuditLog, AuditRecord

__all__ = [
    "AuditEvent",
    "AuditRecord",
    "AuditLog",
    "AuditConfig",
    "AuditVerdict",
    "DimensionResult",
    "FlowOutcome",
    "HarnessContext",
    "NeutralityAuditor",
    "RecordingVerifier",
    "VerificationRecord",
    "AUDIT_SEED",
    "OperatorPersona",
    "HonestOperator",
    "PERSONAS",
    "persona_catalog",
    "PairedTestResult",
    "sign_test",
    "paired_permutation_test",
]

_LAZY = {
    "AuditConfig": "auditor",
    "AuditVerdict": "auditor",
    "DimensionResult": "auditor",
    "FlowOutcome": "auditor",
    "HarnessContext": "auditor",
    "NeutralityAuditor": "auditor",
    "RecordingVerifier": "auditor",
    "VerificationRecord": "auditor",
    "AUDIT_SEED": "auditor",
    "OperatorPersona": "personas",
    "HonestOperator": "personas",
    "NonCookieThrottler": "personas",
    "FreeByteInflater": "personas",
    "BoostUnderDeliverer": "personas",
    "ReplayHonorer": "personas",
    "DescriptorColluder": "personas",
    "RevocationIgnorer": "personas",
    "PERSONAS": "personas",
    "persona_catalog": "personas",
    "PairedTestResult": "stats",
    "sign_test": "stats",
    "paired_permutation_test": "stats",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
