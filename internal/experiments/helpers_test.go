package experiments

// Test-only accessors and checks: the package's tests use them to inspect
// live code, and no product code calls them.

// evalOne measures the mean W₂ of a mechanism on one dataset at (d, eps):
// averaged over the dataset's parts and the configured repeats, with the
// trials fanned out over the suite's worker pool.
func (s *Suite) evalOne(mechName, dataset string, d int, eps float64, metric Metric) (float64, error) {
	means, err := s.runCells([]evalCell{s.mechCell(mechName, dataset, d, eps, metric)})
	if err != nil {
		return 0, err
	}
	return means[0], nil
}

// evalTrajectory measures the point-distribution W₂ of one trajectory
// mechanism at (d, eps) following the seven-step protocol of Appendix D.
func (s *Suite) evalTrajectory(mech string, d int, eps float64) (float64, error) {
	means, err := s.runTrajectoryCells([]string{mech}, []int{d}, []float64{eps})
	if err != nil {
		return 0, err
	}
	return means[0], nil
}
