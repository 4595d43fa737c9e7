"""Subpixel point-target detection and position estimation in aliased optics."""

__version__ = "0.1.0"
