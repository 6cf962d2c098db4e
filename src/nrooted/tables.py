"""Published values the package is checked against.

``M_TABLES`` holds the paper's counts m_N(e) of N-rooted maps with e = 0..6
edges; ``M1_IDENTITIES`` holds the Theorem-3 polynomials that write
N!·λ^{2N−2}·M_N in M₁ and λ.  The ``verify --suite tables`` and
``--suite theorem3`` checks read them from here.
"""

__all__ = ["M_TABLES", "M1_IDENTITIES"]

#: N → (m_N(0), …, m_N(6)).
M_TABLES: dict[int, tuple[int, ...]] = {
    1: (1, 2, 10, 74, 706, 8162, 110410),
    2: (0, 1, 13, 165, 2273, 34577, 581133),
    3: (0, 0, 6, 172, 3834, 81720, 1775198),
}

#: N → terms (coeff, λ-power, M₁-power) of N! λ^{2N−2} M_N.  N = 1 is the
#: degenerate member of the family (M₁ itself).
M1_IDENTITIES: dict[int, list[tuple[int, int, int]]] = {
    1: [(1, 0, 1)],
    2: [(-1, 0, 0), (1, 0, 1), (-2, 2, 2)],
    3: [(-1, 0, 0), (1, 0, 1), (7, 2, 1), (-9, 2, 2), (12, 4, 3)],
    4: [
        (-1, 0, 0),
        (-15, 2, 0),
        (1, 0, 1),
        (47, 2, 1),
        (-34, 2, 2),
        (-112, 4, 2),
        (144, 4, 3),
        (-144, 6, 4),
    ],
    5: [
        (-1, 0, 0),
        (-93, 2, 0),
        (1, 0, 1),
        (216, 2, 1),
        (633, 4, 1),
        (-125, 2, 2),
        (-1875, 4, 2),
        (1300, 4, 3),
        (2800, 6, 3),
        (-3600, 6, 4),
        (2880, 8, 5),
    ],
}
