"""Schur polynomials via nonintersecting lattice paths, two-coloured
changing trails, and exact verifiers for the product identities that
the recolouring bijection proves.

Every name comes from its module: schurtrails.partitions,
schurtrails.polyring, schurtrails.schur, schurtrails.trails,
schurtrails.identities, schurtrails.replay, schurtrails.svg and
schurtrails.cli."""

__version__ = "0.1.0"
