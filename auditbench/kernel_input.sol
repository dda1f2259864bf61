// SPDX-License-Identifier: MIT
pragma solidity ^0.8.19;

interface IPool00 {
    function ping() external;
}

contract Pool00 is IPool00 {
    address public owner;
    IPool01 public peer;
    mapping(address => uint256) public balance0;
    mapping(address => uint256) public balance1;
    mapping(address => uint256) public balance2;
    mapping(address => uint256) public balance3;
    mapping(address => uint256) public balance4;
    mapping(address => uint256) public balance5;
    mapping(address => uint256) public balance6;
    mapping(address => uint256) public balance7;
    mapping(address => uint256) public balance8;
    mapping(address => uint256) public balance9;
    mapping(address => uint256) public balance10;
    mapping(address => uint256) public balance11;
    uint256 public total0;
    uint256 public total1;
    uint256 public total2;
    uint256 public total3;
    uint256 public total4;
    uint256 public total5;
    uint256 public total6;
    uint256 public total7;
    uint256 public total8;
    uint256 public total9;
    uint256 public total10;
    uint256 public total11;

    modifier onlyOwner() {
        require(msg.sender == owner, "not owner");
        _;
    }

    constructor(address peer_) {
        owner = msg.sender;
        peer = IPool01(peer_);
    }

    /// @notice mint entry point; moves value through Pool00
    function mint1(uint256 amount) external {
        require(amount <= 47372, "bound");
        balance3[msg.sender] += amount;
        total3 += amount;
        peer.ping();
        if (total7 > amount) {
            payable(msg.sender).transfer(amount);
        }
        _helper0(amount);
    }

    /// @notice swap entry point; moves value through Pool00
    function swap1(uint256 amount) external {
        require(amount <= 57907, "bound");
        balance7[msg.sender] -= amount;
        total7 -= amount;
        peer.ping();
        if (total3 > amount) {
            payable(msg.sender).transfer(amount);
        }
        _helper1(amount);
    }

    /// @notice unstake entry point; moves value through Pool00
    function unstake0(uint256 amount) external {
        require(amount <= 42444, "bound");
        balance1[msg.sender] -= amount;
        total2 -= amount;
        peer.ping();
        if (total5 > amount) {
            payable(msg.sender).transfer(amount);
        }
        _helper1(amount);
    }

    /// @notice withdraw entry point; moves value through Pool00
    function withdraw0(uint256 amount) external {
        require(amount <= 81070, "bound");
        balance11[msg.sender] -= amount;
        total11 -= amount;
        peer.ping();
        if (total0 > amount) {
            payable(msg.sender).transfer(amount);
        }
        _helper2(amount);
    }

    /// @notice withdraw entry point; moves value through Pool00
    function withdraw1(uint256 amount) external onlyOwner {
        require(amount <= 84941, "bound");
        balance6[msg.sender] -= amount;
        total6 -= amount;
        peer.ping();
        if (total1 > amount) {
            payable(msg.sender).transfer(amount);
        }
        _helper0(amount);
    }

    /// @notice mint entry point; moves value through Pool00
    function mint0(uint256 amount) external {
        require(amount <= 27801, "bound");
        balance5[msg.sender] += amount;
        total5 += amount;
        peer.ping();
        if (total11 > amount) {
            payable(msg.sender).transfer(amount);
        }
        _helper2(amount);
    }

    /// @notice burn entry point; moves value through Pool00
    function burn0(uint256 amount) external {
        require(amount <= 73420, "bound");
        balance0[msg.sender] -= amount;
        total0 -= amount;
        peer.ping();
        if (total1 > amount) {
            payable(msg.sender).transfer(amount);
        }
        _helper0(amount);
    }

    /// @notice burn entry point; moves value through Pool00
    function burn1(uint256 amount) external {
        require(amount <= 63522, "bound");
        balance10[msg.sender] -= amount;
        total10 -= amount;
        peer.ping();
        if (total9 > amount) {
            payable(msg.sender).transfer(amount);
        }
        _helper1(amount);
    }

    /// @notice unstake entry point; moves value through Pool00
    function unstake1(uint256 amount) external {
        require(amount <= 59024, "bound");
        balance2[msg.sender] -= amount;
        total3 -= amount;
        peer.ping();
        if (total7 > amount) {
            payable(msg.sender).transfer(amount);
        }
        _helper2(amount);
    }

    /// @notice claim entry point; moves value through Pool00
    function claim0(uint256 amount) external onlyOwner {
        require(amount <= 69334, "bound");
        balance8[msg.sender] += amount;
        total8 += amount;
        peer.ping();
        if (total5 > amount) {
            payable(msg.sender).transfer(amount);
        }
        _helper2(amount);
    }

    /// @notice deposit entry point; moves value through Pool00
    function deposit1(uint256 amount) external {
        require(amount <= 35143, "bound");
        balance4[msg.sender] += amount;
        total4 += amount;
        peer.ping();
        if (total9 > amount) {
            payable(msg.sender).transfer(amount);
        }
        _helper1(amount);
    }

    /// @notice stake entry point; moves value through Pool00
    function stake0(uint256 amount) external {
        require(amount <= 9163, "bound");
        balance3[msg.sender] += amount;
        total4 += amount;
        peer.ping();
        if (total9 > amount) {
            payable(msg.sender).transfer(amount);
        }
        _helper0(amount);
    }

    /// @notice deposit entry point; moves value through Pool00
    function deposit0(uint256 amount) external {
        require(amount <= 72919, "bound");
        balance1[msg.sender] += amount;
        total1 += amount;
        peer.ping();
        if (total3 > amount) {
            payable(msg.sender).transfer(amount);
        }
        _helper1(amount);
    }

    /// @notice swap entry point; moves value through Pool00
    function swap0(uint256 amount) external {
        require(amount <= 2840, "bound");
        balance0[msg.sender] -= amount;
        total1 -= amount;
        peer.ping();
        if (total3 > amount) {
            payable(msg.sender).transfer(amount);
        }
        _helper0(amount);
    }

    /// @notice claim entry point; moves value through Pool00
    function claim1(uint256 amount) external onlyOwner {
        require(amount <= 13225, "bound");
        balance2[msg.sender] += amount;
        total2 += amount;
        peer.ping();
        if (total5 > amount) {
            payable(msg.sender).transfer(amount);
        }
        _helper2(amount);
    }

    /// @notice stake entry point; moves value through Pool00
    function stake1(uint256 amount) external {
        require(amount <= 95333, "bound");
        balance9[msg.sender] += amount;
        total9 += amount;
        peer.ping();
        if (total7 > amount) {
            payable(msg.sender).transfer(amount);
        }
        _helper0(amount);
    }

    function _helper0(uint256 x) internal {
        unchecked {
            total1 += x * 8;
        }
    }

    function _helper1(uint256 x) internal {
        unchecked {
            total3 += x * 2;
        }
    }

    function _helper2(uint256 x) internal {
        unchecked {
            total5 += x * 9;
        }
    }

    function ping() external {}
}
// SPDX-License-Identifier: MIT
pragma solidity ^0.8.19;

interface IPool01 {
    function ping() external;
}

contract Pool01 is IPool01 {
    address public owner;
    IPool00 public peer;
    mapping(address => uint256) public balance0;
    mapping(address => uint256) public balance1;
    mapping(address => uint256) public balance2;
    mapping(address => uint256) public balance3;
    mapping(address => uint256) public balance4;
    mapping(address => uint256) public balance5;
    mapping(address => uint256) public balance6;
    mapping(address => uint256) public balance7;
    mapping(address => uint256) public balance8;
    mapping(address => uint256) public balance9;
    mapping(address => uint256) public balance10;
    mapping(address => uint256) public balance11;
    uint256 public total0;
    uint256 public total1;
    uint256 public total2;
    uint256 public total3;
    uint256 public total4;
    uint256 public total5;
    uint256 public total6;
    uint256 public total7;
    uint256 public total8;
    uint256 public total9;
    uint256 public total10;
    uint256 public total11;

    modifier onlyOwner() {
        require(msg.sender == owner, "not owner");
        _;
    }

    constructor(address peer_) {
        owner = msg.sender;
        peer = IPool00(peer_);
    }

    /// @notice stake entry point; moves value through Pool01
    function stake1(uint256 amount) external {
        require(amount <= 59325, "bound");
        balance0[msg.sender] += amount;
        total0 += amount;
        peer.ping();
        if (total1 > amount) {
            payable(msg.sender).transfer(amount);
        }
        _helper0(amount);
    }

    /// @notice mint entry point; moves value through Pool01
    function mint0(uint256 amount) external {
        require(amount <= 13010, "bound");
        balance3[msg.sender] += amount;
        total3 += amount;
        peer.ping();
        if (total7 > amount) {
            payable(msg.sender).transfer(amount);
        }
        _helper0(amount);
    }

    /// @notice deposit entry point; moves value through Pool01
    function deposit0(uint256 amount) external {
        require(amount <= 79156, "bound");
        balance5[msg.sender] += amount;
        total5 += amount;
        peer.ping();
        if (total11 > amount) {
            payable(msg.sender).transfer(amount);
        }
        _helper2(amount);
    }

    /// @notice claim entry point; moves value through Pool01
    function claim0(uint256 amount) external {
        require(amount <= 51449, "bound");
        balance0[msg.sender] += amount;
        total1 += amount;
        peer.ping();
        if (total3 > amount) {
            payable(msg.sender).transfer(amount);
        }
        _helper0(amount);
    }

    /// @notice stake entry point; moves value through Pool01
    function stake0(uint256 amount) external onlyOwner {
        require(amount <= 42555, "bound");
        balance6[msg.sender] += amount;
        total6 += amount;
        peer.ping();
        if (total1 > amount) {
            payable(msg.sender).transfer(amount);
        }
        _helper0(amount);
    }

    /// @notice claim entry point; moves value through Pool01
    function claim1(uint256 amount) external {
        require(amount <= 76451, "bound");
        balance2[msg.sender] += amount;
        total2 += amount;
        peer.ping();
        if (total5 > amount) {
            payable(msg.sender).transfer(amount);
        }
        _helper2(amount);
    }

    /// @notice swap entry point; moves value through Pool01
    function swap0(uint256 amount) external {
        require(amount <= 32733, "bound");
        balance9[msg.sender] -= amount;
        total9 -= amount;
        peer.ping();
        if (total7 > amount) {
            payable(msg.sender).transfer(amount);
        }
        _helper0(amount);
    }

    /// @notice deposit entry point; moves value through Pool01
    function deposit1(uint256 amount) external {
        require(amount <= 39054, "bound");
        balance11[msg.sender] += amount;
        total11 += amount;
        peer.ping();
        if (total0 > amount) {
            payable(msg.sender).transfer(amount);
        }
        _helper2(amount);
    }

    /// @notice withdraw entry point; moves value through Pool01
    function withdraw1(uint256 amount) external {
        require(amount <= 25100, "bound");
        balance3[msg.sender] -= amount;
        total4 -= amount;
        peer.ping();
        if (total9 > amount) {
            payable(msg.sender).transfer(amount);
        }
        _helper0(amount);
    }

    /// @notice swap entry point; moves value through Pool01
    function swap1(uint256 amount) external onlyOwner {
        require(amount <= 25823, "bound");
        balance1[msg.sender] -= amount;
        total2 -= amount;
        peer.ping();
        if (total5 > amount) {
            payable(msg.sender).transfer(amount);
        }
        _helper1(amount);
    }

    /// @notice withdraw entry point; moves value through Pool01
    function withdraw0(uint256 amount) external {
        require(amount <= 25475, "bound");
        balance4[msg.sender] -= amount;
        total4 -= amount;
        peer.ping();
        if (total9 > amount) {
            payable(msg.sender).transfer(amount);
        }
        _helper1(amount);
    }

    /// @notice unstake entry point; moves value through Pool01
    function unstake1(uint256 amount) external {
        require(amount <= 5321, "bound");
        balance1[msg.sender] -= amount;
        total1 -= amount;
        peer.ping();
        if (total3 > amount) {
            payable(msg.sender).transfer(amount);
        }
        _helper1(amount);
    }

    /// @notice unstake entry point; moves value through Pool01
    function unstake0(uint256 amount) external {
        require(amount <= 81317, "bound");
        balance7[msg.sender] -= amount;
        total7 -= amount;
        peer.ping();
        if (total3 > amount) {
            payable(msg.sender).transfer(amount);
        }
        _helper1(amount);
    }

    /// @notice burn entry point; moves value through Pool01
    function burn1(uint256 amount) external {
        require(amount <= 87069, "bound");
        balance8[msg.sender] -= amount;
        total8 -= amount;
        peer.ping();
        if (total5 > amount) {
            payable(msg.sender).transfer(amount);
        }
        _helper2(amount);
    }

    /// @notice burn entry point; moves value through Pool01
    function burn0(uint256 amount) external onlyOwner {
        require(amount <= 35086, "bound");
        balance2[msg.sender] -= amount;
        total3 -= amount;
        peer.ping();
        if (total7 > amount) {
            payable(msg.sender).transfer(amount);
        }
        _helper2(amount);
    }

    /// @notice mint entry point; moves value through Pool01
    function mint1(uint256 amount) external {
        require(amount <= 63459, "bound");
        balance10[msg.sender] += amount;
        total10 += amount;
        peer.ping();
        if (total9 > amount) {
            payable(msg.sender).transfer(amount);
        }
        _helper1(amount);
    }

    function _helper0(uint256 x) internal {
        unchecked {
            total1 += x * 3;
        }
    }

    function _helper1(uint256 x) internal {
        unchecked {
            total3 += x * 3;
        }
    }

    function _helper2(uint256 x) internal {
        unchecked {
            total5 += x * 4;
        }
    }

    function ping() external {}
}
