"""Command-line tools for operating a Dimmunix deployment."""
