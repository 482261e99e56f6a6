module matview/bench

go 1.22

require matview v0.0.0

replace matview => ../
