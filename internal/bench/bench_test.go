package bench

import "testing"

func BenchmarkSimCoreHandler(b *testing.B)     { SimCoreHandler(b) }
func BenchmarkLinkForward(b *testing.B)        { LinkForward(b) }
func BenchmarkWholeCell(b *testing.B)          { WholeCell(b) }
func BenchmarkWholeCellTelemetry(b *testing.B) { WholeCellTelemetry(b) }
func BenchmarkTestbedBuild(b *testing.B)       { TestbedBuild(b) }
func BenchmarkWifiCell(b *testing.B)           { WifiCell(b) }
func BenchmarkPacedCell(b *testing.B)          { PacedCell(b) }
func BenchmarkStatsAccumulate(b *testing.B)    { StatsAccumulate(b) }
func BenchmarkCellRepLoop(b *testing.B)        { CellRepLoop(b) }
