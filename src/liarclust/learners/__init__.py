"""Learning strategies: adaptive insertion learners and fixed query plans."""
