module launchmon/benchmark

go 1.21

require launchmon v0.0.0

replace launchmon => ../
