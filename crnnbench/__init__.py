"""Wire-to-kernel benchmark of the CRNN service (see README.md)."""
