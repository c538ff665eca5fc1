"""MAC substrate: sector-sweep failure and its bounded retry
(:mod:`repro.mac.sls`), which the live session and the fault wrappers use."""
