"""Relational matrix algebra (RMA) — the paper's core contribution.

Public surface: the 19 relational matrix operations in :mod:`repro.core.ops`
(``add``, ``sub``, ``emu``, ``mmu``, ``opd``, ``cpd``, ``tra``, ``sol``,
``inv``, ``evc``, ``evl``, ``qqr``, ``rqr``, ``dsv``, ``usv``, ``vsv``,
``det``, ``rnk``, ``chf``), the shape-type registry in
:mod:`repro.core.shapes`, and the matrix/relation constructors in
:mod:`repro.core.constructors`.
"""
from repro.core import constructors, matrix_ops, ops, shapes  # noqa: F401
