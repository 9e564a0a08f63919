"""Shared test constants and machine/program construction helpers.

Importable by name from any test module (``from repro_testlib import
DATA_BASE, POLICIES``) — a plain module rather than ``conftest`` so the
benchmarks' own conftest can never shadow it.  The pytest fixtures in
``tests/conftest.py`` wrap these factories.
"""

from repro import CommitPolicy, Machine, ProgramBuilder
from repro.backends import DEFAULT_BACKEND

DATA_BASE = 0x20000
KERNEL_BASE = 0x80000

# The paper's three commit policies, in matrix order.
POLICIES = (CommitPolicy.BASELINE, CommitPolicy.WFB, CommitPolicy.WFC)


def make_user_machine(policy=CommitPolicy.BASELINE, data_bytes=64 * 1024,
                      kernel=False, **machine_kwargs):
    """A fresh machine with the standard user data region mapped."""
    machine = Machine(policy=policy, **machine_kwargs)
    if data_bytes:
        machine.map_user_range(DATA_BASE, data_bytes)
    if kernel:
        machine.map_kernel_range(KERNEL_BASE, 4096)
    return machine


def build_and_run(build, policy=CommitPolicy.BASELINE, setup=None,
                  regs=None, kernel=False, backend=DEFAULT_BACKEND, **kwargs):
    """Build a program via ``build(builder)`` and run it on a fresh
    machine of the given backend; returns ``(machine, result)``."""
    machine = make_user_machine(policy=policy, kernel=kernel, backend=backend)
    if setup:
        setup(machine)
    b = ProgramBuilder()
    build(b)
    return machine, machine.run(b.build(), initial_registers=regs, **kwargs)


def make_load_program(addr, offset=0):
    """The ubiquitous probe program: ``li base / load / halt``."""
    b = ProgramBuilder()
    b.li("r1", addr)
    b.load("r2", "r1", offset)
    b.halt()
    return b.build()
