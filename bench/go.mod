module bwpart/bench

go 1.22

require bwpart v0.0.0

replace bwpart => ../
