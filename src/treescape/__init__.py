"""Adjacency graphs of tree rearrangement moves over collections of
phylogenetic trees, built by indexing canonical two-component forests.

``import treescape`` binds no names and loads no module of the package:
import each name from its home module, as in
``from treescape.afcontainer import AFContainer``.
"""
