module dra4wfms/benchmarks/system

go 1.22

require dra4wfms v0.0.0

replace dra4wfms => ../..
