"""Design and analysis toolkit for soft 3D-printed propelled arms."""

__version__ = "0.1.0"
